import itertools
import os
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclesets import (
    CycleSet,
    OracleResult,
    SearchOptions,
    SizeTooLarge,
    brute_aut,
    brute_iso,
    canonical_form,
    check_cycle_set,
    cyclic_cycle_set,
    enumerate_classes,
    enumerate_cycle_sets,
    irr_cycle_set,
    is_indecomposable,
    is_irretractable,
    mpl2_cycle_set,
    relabel,
    to_cycle_set,
)
from cyclesets import oracle


@pytest.fixture(scope="module")
def n4_all():
    return enumerate_cycle_sets(SearchOptions(n=4))


def test_tiny_sizes_complete():
    assert len(enumerate_cycle_sets(SearchOptions(n=1)).classes) == 1
    assert len(enumerate_cycle_sets(SearchOptions(n=2)).classes) == 2
    r3 = enumerate_cycle_sets(SearchOptions(n=3))
    assert len(r3.classes) == 5
    assert r3.complete


def test_size_four_census(n4_all):
    assert len(n4_all.classes) == 23
    assert n4_all.complete
    assert all(check_cycle_set(cs).ok for cs in n4_all.classes)


def test_size_four_indecomposable_filter():
    found = enumerate_cycle_sets(SearchOptions(n=4, indecomposable_only=True))
    assert len(found.classes) == 5
    assert found.complete
    assert all(is_indecomposable(cs) for cs in found.classes)
    narrowed = enumerate_cycle_sets(
        SearchOptions(n=4, indecomposable_only=True, irretractable_only=True)
    )
    assert len(narrowed.classes) == 2
    assert all(is_irretractable(cs) for cs in narrowed.classes)


def test_classes_are_pairwise_non_isomorphic(n4_all):
    classes = n4_all.classes
    for i, a in enumerate(classes):
        for b in classes[i + 1 :]:
            assert brute_iso(a, b) is None


def test_oracle_finds_all_constructed_members():
    found = enumerate_cycle_sets(SearchOptions(n=4, indecomposable_only=True)).classes
    for target in (
        cyclic_cycle_set(4),
        mpl2_cycle_set(2, (2,), (0, 1), 0),
        mpl2_cycle_set(2, (2,), (0, 1), 1),
        irr_cycle_set(2, (0, 1), 1),
        irr_cycle_set(2, (1, 0), 1),
    ):
        assert sum(1 for cs in found if brute_iso(cs, target) is not None) == 1


def test_size_five_census():
    result = enumerate_cycle_sets(SearchOptions(n=5))
    assert len(result.classes) == 88
    assert result.complete
    narrowed = enumerate_cycle_sets(SearchOptions(n=5, indecomposable_only=True))
    assert len(narrowed.classes) == 1


# involutive solutions of size n up to isomorphism, all and indecomposable
# (Etingof-Schedler-Soloviev, Duke Math. J. 1999; Akguen-Mereb-Vendramin,
# Math. Comp. 2022)
@pytest.mark.parametrize("n, count, indecomposable", [(1, 1, 1), (2, 2, 1), (3, 5, 1), (4, 23, 5), (5, 88, 1)])
def test_published_counts(n, count, indecomposable):
    assert len(enumerate_cycle_sets(SearchOptions(n=n)).classes) == count
    assert len(enumerate_cycle_sets(SearchOptions(n=n, indecomposable_only=True)).classes) == indecomposable


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("flag, keep", [("indecomposable_only", is_indecomposable), ("irretractable_only", is_irretractable)])
def test_filters_run_before_the_canonical_form(n, flag, keep, monkeypatch):
    everything = enumerate_cycle_sets(SearchOptions(n=n))
    seen = []

    def spy(cs):
        seen.append(cs)
        return canonical_form(cs)

    monkeypatch.setattr(oracle, "canonical_form", spy)
    found = enumerate_cycle_sets(SearchOptions(n=n, **{flag: True}))
    assert all(keep(cs) for cs in seen)
    assert found.classes == tuple(cs for cs in everything.classes if keep(cs))
    assert found.nodes == everything.nodes
    assert found.complete


def test_node_budget_reports_incomplete():
    result = enumerate_cycle_sets(SearchOptions(n=4, max_nodes=50))
    assert not result.complete
    assert result.nodes <= 50 + 4  # allowance for the in-flight row


def test_time_budget_zero():
    result = enumerate_cycle_sets(SearchOptions(n=5, time_budget=0.0))
    assert not result.complete


def test_time_budget_at_size_nine_overshoots_by_at_most_one_scan():
    # row 0 starts at the identity, and among identity rows every pair a, b
    # has u = b and v = a placed, so the closure places no row and each row
    # first tries the identity: the first complete size-9 table is the trivial
    # one, the dearest single canonical form: every x reaches the identity
    # row 0 through all 8! maps that fix 0, and all 9! labelings tie to the
    # last row
    assert oracle._row0_reps(9)[0] == tuple(range(9))
    start = time.monotonic()
    result = enumerate_cycle_sets(SearchOptions(n=9, time_budget=0.5))
    assert not result.complete
    assert time.monotonic() - start < 4.0


@pytest.mark.parametrize(
    "bad",
    [
        {"time_budget": float("nan")},
        {"time_budget": -1.0},
        {"max_nodes": -1},
    ],
)
def test_search_options_reject_nan_and_negative_budgets(bad):
    with pytest.raises(ValueError):
        SearchOptions(n=3, **bad)


def test_jobs_do_not_change_the_answer(n4_all):
    split = enumerate_cycle_sets(SearchOptions(n=4, jobs=2))
    assert {cs.table for cs in split.classes} == {cs.table for cs in n4_all.classes}
    assert split.complete


@pytest.mark.parametrize("n, nodes", [(3, 46), (4, 1_207)])
def test_jobs_do_not_change_the_node_count(n, nodes, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers even on a one-CPU host
    assert [enumerate_cycle_sets(SearchOptions(n=n, jobs=jobs)).nodes for jobs in (1, 2)] == [nodes, nodes]


def test_workers_share_the_node_budget(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    result = enumerate_cycle_sets(SearchOptions(n=4, jobs=2, max_nodes=50))
    assert not result.complete
    assert result.nodes <= 50 + 4  # each worker counts the node that trips its share


def test_size_guard():
    with pytest.raises(SizeTooLarge):
        enumerate_cycle_sets(SearchOptions(n=10))
    with pytest.raises(SizeTooLarge):
        canonical_form(mpl2_cycle_set(5, (2,), (0, 1, 0, 1, 0), 1))  # n = 10
    with pytest.raises(SizeTooLarge):
        brute_iso(
            mpl2_cycle_set(5, (2,), (0, 1, 0, 1, 0), 1),
            mpl2_cycle_set(5, (2,), (0, 1, 0, 1, 0), 1),
        )


def test_canonical_form_is_canonical(n4_all):
    for cs in n4_all.classes:
        assert canonical_form(cs).table == cs.table


@given(st.permutations(range(4)))
@settings(max_examples=30, deadline=None)
def test_canonical_form_relabeling_invariant(perm):
    cs = irr_cycle_set(2, (0, 1), 1)
    assert canonical_form(relabel(cs, tuple(perm))).table == canonical_form(cs).table


def test_brute_aut_frozen():
    assert len(brute_aut(irr_cycle_set(2, (0, 1), 1))) == 2
    auts = brute_aut(cyclic_cycle_set(4))
    assert tuple(range(4)) in auts


def test_brute_iso_examples():
    assert brute_iso(cyclic_cycle_set(4), cyclic_cycle_set(4)) is not None
    assert brute_iso(cyclic_cycle_set(4), mpl2_cycle_set(2, (2,), (0, 1), 0)) is None
    assert brute_iso(cyclic_cycle_set(4), cyclic_cycle_set(9)) is None


def test_result_shape(n4_all):
    assert isinstance(n4_all, OracleResult)
    assert n4_all.nodes > 0
    assert n4_all.elapsed >= 0.0


def test_canonical_form_memory_is_bounded_by_the_scan_block():
    # all 9! labelings of the trivial table reach its row 0 and tie on every
    # row, so no block shrinks; a 9!-by-81 intp tensor would need 235 MB
    trivial = CycleSet(tuple(tuple(range(9)) for _ in range(9)))
    tracemalloc.start()
    try:
        form = canonical_form(trivial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert form == trivial
    assert peak < 32 * 2**20


def test_brute_iso_memory_is_bounded_by_the_slice_cap():
    # every partial map of the trivial table passes every check, so the
    # frontier would be all 9! bijections if it were not grown in slices
    trivial = CycleSet(tuple(tuple(range(9)) for _ in range(9)))
    tracemalloc.start()
    try:
        found = brute_iso(trivial, trivial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == tuple(range(9))
    assert peak < 32 * 2**20


# -- the exact outputs, against a plain itertools reference -------------------


def _ref_relabel(t, perm):
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    return tuple(tuple(perm[t[inv[x]][inv[y]]] for y in range(len(t))) for x in range(len(t)))


def _ref_morphisms(ta, tb):
    pts = range(len(ta))
    for perm in itertools.permutations(pts):
        if all(perm[ta[x][y]] == tb[perm[x]][perm[y]] for x in pts for y in pts):
            yield perm


def _all_ints(rows):
    return all(type(v) is int for row in rows for v in row)


_MEMBERS = {
    4: [
        cyclic_cycle_set(4),
        irr_cycle_set(2, (0, 1), 1),
        mpl2_cycle_set(2, (2,), (0, 1), 0),
        mpl2_cycle_set(2, (2,), (0, 1), 1),
    ],
    5: [cyclic_cycle_set(5)],
    6: [
        cyclic_cycle_set(6),
        mpl2_cycle_set(2, (3,), (0, 1), 0),
        mpl2_cycle_set(3, (2,), (0, 1, 1), 1),
    ],
}


@st.composite
def _cycle_sets(draw, n=None):
    """A relabeled constructed member, or x*y = s(y) for a drawn permutation s."""
    n = draw(st.sampled_from(sorted(_MEMBERS))) if n is None else n
    choice = draw(st.integers(-1, len(_MEMBERS[n]) - 1))
    if choice < 0:
        row = tuple(draw(st.permutations(range(n))))
        table = (row,) * n
    else:
        table = _MEMBERS[n][choice].table
    return _ref_relabel(table, tuple(draw(st.permutations(range(n)))))


def _canonical_slices(data):
    """Filter the labelings in slices of a drawn size, so small sizes cross slices."""
    return mock.patch.object(oracle, "_SLICE", data.draw(st.sampled_from((1, 2, 5, oracle._SLICE)), label="slice"))


def _scan_slices(data):
    """Grow partial maps under a drawn cap; at cap 1 every frontier of more than
    one map is split, at every depth."""
    return mock.patch.object(oracle, "_CAP", data.draw(st.sampled_from((1, 4, 16, oracle._CAP)), label="cap"))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_brute_iso_is_the_first_isomorphism_in_lexicographic_order(data):
    ta = data.draw(_cycle_sets())
    n = len(ta)
    same = data.draw(st.booleans())
    tb = _ref_relabel(ta, tuple(data.draw(st.permutations(range(n))))) if same else data.draw(_cycle_sets(n))
    with _scan_slices(data):
        got = brute_iso(CycleSet(ta), CycleSet(tb))
    assert got == next(_ref_morphisms(ta, tb), None)
    assert got is None or _all_ints([got])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_brute_aut_lists_every_automorphism_in_lexicographic_order(data):
    t = data.draw(_cycle_sets())
    with _scan_slices(data):
        got = brute_aut(CycleSet(t))
    assert got == list(_ref_morphisms(t, t))
    assert _all_ints(got)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_form_is_the_least_relabeled_table(data):
    t = data.draw(_cycle_sets())
    assert check_cycle_set(CycleSet(t)).ok
    with _canonical_slices(data):
        got = canonical_form(CycleSet(t)).table
    assert got == min(_ref_relabel(t, perm) for perm in itertools.permutations(range(len(t))))
    assert _all_ints(got)


def _canonical_form_reference(cs):
    """The scan canonical_form replaced: the n! bijections in lexicographic
    order, in blocks that fix the images of the first n - m points and run
    the other m = min(n, 6) through all their arrangements, each block's
    relabelings filtered row by row against the least table so far."""
    n = cs.n
    t = np.array(cs.table, dtype=np.intp)
    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    points = np.arange(n)[:, None]
    m = min(n, 6)
    tail = np.array(list(zip(*itertools.permutations(range(m)))), dtype=np.intp)
    best = None
    for prefix in itertools.permutations(range(n), n - m):
        block = np.empty((n, tail.shape[1]), dtype=np.intp)
        block[: n - m] = np.array(prefix, dtype=np.intp)[:, None]
        block[n - m :] = np.array(sorted(set(range(n)).difference(prefix)), dtype=np.intp)[tail]
        inv = np.empty_like(block)
        inv[block, np.arange(block.shape[1])] = points
        below = best is None
        rows = []
        for u in range(n):
            w = block.shape[1]
            row = block.ravel()[t[inv[u], inv] * w + np.arange(w)]
            key = powers @ row
            i = int(key.argmin())
            if not below:
                if key[i] > best[u][0]:
                    break
                below = key[i] < best[u][0]
            rows.append((key[i], row[:, i]))
            keep = key == key[i]
            block, inv = block[:, keep], inv[:, keep]
        else:
            if below:
                best = rows
    return CycleSet(np.array([row for _, row in best]))


def _census_pool_of_size_eight():
    """Z_8 and the level-two cycle sets on Z_2 x Z_4 and Z_4 x Z_2, every (f, s)."""
    pool = [cyclic_cycle_set(8)]
    pool += [mpl2_cycle_set(2, (4,), (0, f), s) for f in range(1, 4) for s in range(4)]
    pool += [mpl2_cycle_set(4, (2,), (0, f & 1, f >> 1 & 1, f >> 2 & 1), s) for f in range(1, 8) for s in range(2)]
    return pool


def _relabeled(cs, rng):
    perm = list(range(cs.n))
    rng.shuffle(perm)
    return CycleSet(_ref_relabel(cs.table, tuple(perm)))


def test_canonical_form_equals_the_block_scan(monkeypatch):
    seen = []
    monkeypatch.setattr(oracle, "canonical_form", lambda cs: seen.append(cs) or canonical_form(cs))
    for n in range(1, 5):
        enumerate_cycle_sets(SearchOptions(n=n))
    monkeypatch.undo()
    assert len(seen) == 1 + 2 + 9 + 74
    rng = random.Random(8)
    pool = [_relabeled(cs, rng) for cs in _census_pool_of_size_eight()]
    assert len(pool) == 27
    for cs in seen + pool:
        assert canonical_form(cs) == _canonical_form_reference(cs)


@pytest.mark.slow
def test_canonical_form_equals_the_block_scan_at_size_nine():
    rng = random.Random(9)
    classes = [_relabeled(to_cycle_set(q), rng) for q in enumerate_classes(3)]
    assert len(classes) == 16
    for cs in classes:
        assert canonical_form(cs) == _canonical_form_reference(cs)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("slice_", [3, None])
def test_labelings_are_the_maps_that_send_x_to_0_and_s_x_to_the_least_row(n, slice_, monkeypatch):
    if slice_ is not None:
        monkeypatch.setattr(oracle, "_SLICE", slice_)
    rng = random.Random(n)
    perms = list(itertools.permutations(range(n)))
    types = list(oracle._partitions(n, n))
    assert len(types) == [1, 2, 3, 5, 7, 11][n - 1]
    for lengths in types:
        s = _conjugate(oracle._lay(lengths), rng.sample(range(n), n))  # a seeded one of this cycle type
        reaching = {}  # the least row's lengths -> [B for each x], the P that reach it
        for x in range(n):
            to_0 = [p for p in perms if p[x] == 0]
            least = min(_conjugate(s, p) for p in to_0)
            laid, base = oracle._laid(s, x)
            assert oracle._lay(laid) == least
            want = {p for p in to_0 if _conjugate(s, p) == least}
            assert _columns(oracle._labelings(laid, [base])) == want
            bases, wants = reaching.setdefault(laid, ([], set()))
            bases.append(base)
            wants |= want
        for laid, (bases, wants) in reaching.items():  # every x whose cycle is as long, at once
            assert _columns(oracle._labelings(laid, bases)) == wants


def _columns(blocks):
    got = [tuple(col) for block in blocks for col in block.T.tolist()]
    assert len(got) == len(set(got))
    return set(got)


# -- the census, against the plain row-by-row search ---------------------------


def _ref_census(n):
    """Every table row by row, each row every permutation, pruned by the diagonal
    and the square-law instances its row decides; the classes as least relabelings."""
    pts = range(n)
    perms = list(itertools.permutations(pts))

    def law(rows, x):
        placed = range(x + 1)
        return all(
            rows[rows[a][b]][rows[a][c]] == rows[rows[b][a]][rows[b][c]]
            for a in placed
            for b in placed
            if rows[a][b] <= x and rows[b][a] <= x and x in (a, b, rows[a][b], rows[b][a])
            for c in pts
        )

    def tables(rows):
        x = len(rows)
        if x == n:
            yield rows
            return
        diag = {rows[y][y] for y in range(x)}
        for perm in perms:
            if perm[x] not in diag and law(rows + [perm], x):
                yield from tables(rows + [perm])

    return {min(_ref_relabel(t, perm) for perm in perms) for t in tables([])}


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_census_equals_the_plain_row_by_row_search(n):
    assert {cs.table for cs in enumerate_cycle_sets(SearchOptions(n=n)).classes} == _ref_census(n)


def _conjugate(s, perm):
    """perm s perm^-1: row s as a relabeling by perm leaves it."""
    out = [0] * len(s)
    for x, y in enumerate(s):
        out[perm[x]] = perm[y]
    return tuple(out)


def test_row0_representatives_count_one_per_cycle_type_and_cycle_through_0():
    assert [len(oracle._row0_reps(n)) for n in range(1, 10)] == [1, 2, 4, 7, 12, 19, 30, 45, 67]
    for n in range(1, 10):
        reps = oracle._row0_reps(n)
        assert reps[0] == tuple(range(n))
        assert list(reps) == sorted(set(reps))
        assert all(sorted(r) == list(range(n)) for r in reps)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_row_is_conjugate_to_exactly_one_row0_representative(n):
    reps = set(oracle._row0_reps(n))
    fixing_0 = [(0, *rest) for rest in itertools.permutations(range(1, n))]
    for s in itertools.permutations(range(n)):
        assert len(reps & {_conjugate(s, perm) for perm in fixing_0}) == 1


def _closed(rows, diag=None):
    """_close on a copy of ``rows`` (None for unplaced), with the placed rows'
    diagonal unless ``diag`` is given: (its answer, its trail, the rows)."""
    rows = list(rows)
    diag = {row[x] for x, row in enumerate(rows) if row is not None} if diag is None else diag
    trail = []
    return oracle._close(rows, diag, trail, len(rows)), trail, rows


def test_the_closure_places_only_the_rows_of_every_known_table():
    tables = [
        _ref_relabel(cs.table, perm)
        for n in range(1, 5)
        for cs in enumerate_cycle_sets(SearchOptions(n=n)).classes
        for perm in itertools.permutations(range(n))
    ]
    tables += [to_cycle_set(q).table for q in enumerate_classes(3)]
    assert len(tables) == 1 + 2 * 2 + 5 * 6 + 23 * 24 + 16
    rng = random.Random(23)
    placed = beyond_the_least = 0
    for t in tables:
        n = len(t)
        # every subset of rows below n = 9, 48 seeded ones at n = 9
        masks = range(2**n) if n < 9 else [rng.getrandbits(n) for _ in range(48)]
        for mask in masks:
            ok, trail, rows = _closed([row if mask >> x & 1 else None for x, row in enumerate(t)])
            assert ok
            assert all(rows[x] == t[x] if mask >> x & 1 or x in trail else rows[x] is None for x in range(n))
            placed += len(trail)
            least = next((x for x in range(n) if not mask >> x & 1), n)
            beyond_the_least += any(x != least for x in trail)
    assert placed > 0 and beyond_the_least > 0


_ID = (0, 1, 2)


@pytest.mark.parametrize(
    "rows, diag, closed",
    [
        # a, b = 0, 1: u = s_0(1) = 2 unplaced, v = s_1(0) = 0 placed, so
        # s_2 = s_0 s_1 s_0^-1
        pytest.param([(0, 2, 1), _ID, None], None, (True, [2], [(0, 2, 1), _ID, _ID]), id="s_u-from-v"),
        # a, b = 0, 1: u = s_0(1) = 1 placed, v = s_1(0) = 2 unplaced, so the
        # mirror pair 1, 0 gives s_2 = s_1 s_0 s_1^-1
        pytest.param([_ID, (2, 1, 0), None], None, (True, [2], [_ID, (2, 1, 0), _ID]), id="s_v-from-u"),
        # every row placed, diagonal 0, 1, 2; a, b = 0, 1 gives u = 2, v = 0
        # and s_2 s_0 = (1, 2, 0) != s_0 s_1 = (0, 2, 1)
        pytest.param([(0, 2, 1), _ID, (1, 0, 2)], None, (False, [], [(0, 2, 1), _ID, (1, 0, 2)]), id="check"),
        # s_0(1) = s_1(0) = 2 unplaced, so s_2 s_0 = s_2 s_1 requires s_0 = s_1
        pytest.param([(0, 2, 1), (2, 1, 0), None], None, (False, [], [(0, 2, 1), (2, 1, 0), None]), id="u-is-v"),
        # a, b = 0, 1 forces s_2 = s_1 s_1 s_0^-1 = (2, 1, 0), whose s_2(2) = 0
        # is s_0(0): refused at once, while with no diagonal held it is placed
        pytest.param([(0, 2, 1), (1, 2, 0), None], None, (False, [], [(0, 2, 1), (1, 2, 0), None]), id="diagonal"),
        pytest.param(
            [(0, 2, 1), (1, 2, 0), None], set(), (False, [2], [(0, 2, 1), (1, 2, 0), (2, 1, 0)]), id="no-diagonal"
        ),
    ],
)
def test_each_closure_rule_decides_a_small_partial_table(rows, diag, closed):
    assert _closed(rows, diag) == closed
    if closed[0]:
        assert check_cycle_set(CycleSet(closed[2])).ok


@pytest.mark.slow
def test_published_counts_at_six():
    start = time.monotonic()
    result = enumerate_cycle_sets(SearchOptions(n=6))
    assert time.monotonic() - start < 30.0
    assert len(result.classes) == 595
    assert result.complete
    assert sum(map(is_indecomposable, result.classes)) == 10
