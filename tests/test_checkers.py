"""The chunked n^3 checkers against plain triple loops, and their memory."""

import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from cyclesets import (
    CycleSet,
    Solution,
    SolutionReport,
    ValidityReport,
    check_cycle_set,
    check_solution,
    enumerate_classes,
    irr_cycle_set,
    to_cycle_set,
    to_solution,
)
import cyclesets
from cyclesets import cycleset

_MEMBERS = [
    to_cycle_set(q)
    for classes in (enumerate_classes(2), enumerate_classes(3), enumerate_classes(5)[::97])
    for q in classes
]


def _first(triples):
    return next(iter(triples), None)


def reference_cycle_set_report(table) -> ValidityReport:
    n = len(table)
    t = table
    square = _first(
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if t[t[x][y]][t[x][z]] != t[t[y][x]][t[y][z]]
    )
    row = _first(x for x in range(n) if sorted(t[x]) != list(range(n)))
    diagonal = _first(
        (w, x) for x in range(n) for w in range(x) if t[w][w] == t[x][x]
    )
    return ValidityReport(square is None, square, row is None, row, diagonal is None, diagonal)


def reference_solution_report(lam, rho) -> SolutionReport:
    n = len(lam)

    def r(x, y):
        return lam[x][y], rho[y][x]

    def r12(x, y, z):
        return (*r(x, y), z)

    def r23(x, y, z):
        return (x, *r(y, z))

    perm = list(range(n))
    degenerate = _first(
        [("lam", x) for x in range(n) if sorted(lam[x]) != perm]
        + [("rho", y) for y in range(n) if sorted(rho[y]) != perm]
    )
    involution = _first((x, y) for x in range(n) for y in range(n) if r(*r(x, y)) != (x, y))
    braid = _first(
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if r12(*r23(*r12(x, y, z))) != r23(*r12(*r23(x, y, z)))
    )
    return SolutionReport(
        degenerate is None, degenerate, involution is None, involution, braid is None, braid
    )


def _corrupt(data, rows, n):
    """Overwrite a few drawn entries and swap two entries within a drawn row."""
    rows = [list(row) for row in rows]
    for _ in range(data.draw(st.integers(0, 3))):
        x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        rows[x][y] = v
    if data.draw(st.booleans()):
        x, a, b = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        rows[x][a], rows[x][b] = rows[x][b], rows[x][a]
    return tuple(map(tuple, rows))


def _table(data):
    """A family member at n <= 25, or random permutation rows at n <= 6."""
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(_MEMBERS)).table
    n = data.draw(st.integers(1, 6))
    return tuple(tuple(data.draw(st.permutations(range(n)))) for _ in range(n))


def _int_witnesses(report):
    for witness in vars(report).values():
        if isinstance(witness, tuple):
            assert all(type(v) in (int, str) for v in witness)
        elif witness is not None:
            assert type(witness) in (int, bool)


_CHUNKS = (1, 2, 7, cycleset._CHUNK)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_check_cycle_set_matches_the_triple_loop(data):
    table = _table(data)
    table = _corrupt(data, table, len(table))
    expected = reference_cycle_set_report(table)
    for chunk in _CHUNKS:
        with mock.patch.object(cycleset, "_CHUNK", chunk):
            report = check_cycle_set(CycleSet(table))
        assert report == expected, chunk
        _int_witnesses(report)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_check_solution_matches_the_triple_loop(data):
    table = _table(data)
    if data.draw(st.booleans()):
        table = _corrupt(data, table, len(table))
    sol = to_solution(CycleSet(table), check=False)
    n = sol.n
    lam, rho = _corrupt(data, sol.lam, n), _corrupt(data, sol.rho, n)
    expected = reference_solution_report(lam, rho)
    for chunk in _CHUNKS:
        with mock.patch.object(cycleset, "_CHUNK", chunk):
            report = check_solution(Solution(lam, rho))
        assert report == expected, chunk
        _int_witnesses(report)


def _permutation_rows(data):
    """Random permutation rows at n <= 6, or a family member at n <= 25 with
    entries swapped inside a few drawn rows: rows stay permutations."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 6))
        return tuple(tuple(data.draw(st.permutations(range(n)))) for _ in range(n))
    rows = [list(row) for row in data.draw(st.sampled_from(_MEMBERS)).table]
    n = len(rows)
    for _ in range(data.draw(st.integers(0, 2))):
        x, a, b = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        rows[x][a], rows[x][b] = rows[x][b], rows[x][a]
    return tuple(map(tuple, rows))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_check_solution_matches_the_triple_loop_where_the_square_law_decides(data):
    """lam = inverse_rows(T) and rho_y(x) = T[lam_x(y)][x] for permutation
    rows T: an involutive solution with every lam_x a permutation, whose
    braid relation check_solution settles by T's square law."""
    table = _permutation_rows(data)
    sol = to_solution(CycleSet(table), check=False)
    expected = reference_solution_report(sol.lam, sol.rho)
    assert expected.involutive_ok
    assert expected.nondegenerate_ok or expected.nondegenerate_witness[0] == "rho"  # no lam_x fails
    assert expected.braiding_ok == check_cycle_set(CycleSet(table)).square_law_ok
    event(f"square law holds: {expected.braiding_ok}")
    for chunk in _CHUNKS:
        with mock.patch.object(cycleset, "_CHUNK", chunk):
            report = check_solution(sol)
        assert report == expected, chunk
        _int_witnesses(report)


def _irr_member(p):
    phi = [0] + [1 + a % 2 for a in range(1, p // 2 + 1)]
    return irr_cycle_set(p, [phi[min(a, p - a)] for a in range(p)], 1)


def _traced_peak_mb(check, arg):
    tracemalloc.start()
    try:
        report = check(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    return peak / 2**20


@pytest.fixture(scope="module")
def member_289():
    cs = _irr_member(17)
    return cs, to_solution(cs, check=False)


def test_check_solution_memory_at_289_points(member_289):
    """An n^3-tensor check_solution peaked at 2.03 GB here."""
    assert _traced_peak_mb(check_solution, member_289[1]) < 32


def test_check_cycle_set_memory_at_289_points(member_289):
    """An n^3-tensor check_cycle_set peaked at 393 MB here."""
    assert _traced_peak_mb(check_cycle_set, member_289[0]) < 16


def test_check_solution_memory_at_25_points():
    """At 0.76 MiB, glibc trimmed these temporaries off the heap top after
    each call and the next call faulted them back in."""
    assert _traced_peak_mb(check_solution, to_solution(_irr_member(5), check=False)) < 0.5


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
def test_check_solution_faults_no_pages_per_call_at_25_points():
    """151 minor page faults per call in a fresh interpreter with 2^14-triple chunks."""
    code = textwrap.dedent(
        """
        import resource
        from cyclesets import check_solution, irr_cycle_set, to_solution
        sol = to_solution(irr_cycle_set(5, (0, 1, 4, 4, 1)))
        check_solution(sol)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            assert check_solution(sol).ok
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cyclesets.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert int(done.stdout) < 50


@pytest.mark.slow
def test_checkers_memory_at_961_points():
    """n = 961 (p = 31): the n^3 tensors would need tens of GB."""
    cs = _irr_member(31)
    assert _traced_peak_mb(check_cycle_set, cs) < 32
    assert _traced_peak_mb(check_solution, to_solution(cs, check=False)) < 96
