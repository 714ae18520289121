import itertools
import os
import time
import tracemalloc
from unittest import mock

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
    enumerate_cycle_sets,
    irr_cycle_set,
    is_indecomposable,
    is_irretractable,
    mpl2_cycle_set,
    relabel,
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


@pytest.mark.slow
def test_size_five_census():
    result = enumerate_cycle_sets(SearchOptions(n=5))
    assert len(result.classes) == 88
    assert result.complete
    narrowed = enumerate_cycle_sets(SearchOptions(n=5, indecomposable_only=True))
    assert len(narrowed.classes) == 1


def test_node_budget_reports_incomplete():
    result = enumerate_cycle_sets(SearchOptions(n=4, max_nodes=50))
    assert not result.complete
    assert result.nodes <= 50 + 4  # allowance for the in-flight row


def test_time_budget_zero():
    result = enumerate_cycle_sets(SearchOptions(n=5, time_budget=0.0))
    assert not result.complete


def test_time_budget_at_size_nine_overshoots_by_at_most_one_scan():
    # the first complete size-9 table is the trivial one, whose canonical
    # form keeps every relabeling to the last row: the dearest single scan
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


@pytest.mark.parametrize("n, nodes", [(3, 150), (4, 18_600)])
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
    # every relabeling of the trivial table ties on every row, so no block
    # shrinks; a 9!-by-81 intp tensor would need 235 MB
    trivial = CycleSet(tuple(tuple(range(9)) for _ in range(9)))
    tracemalloc.start()
    try:
        form = canonical_form(trivial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert form == trivial
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


def _scan_blocks(data):
    """Scan in blocks of m! bijections for a drawn m, so small sizes cross blocks."""
    return mock.patch.object(oracle, "_TAIL", data.draw(st.sampled_from((2, 3, oracle._TAIL)), label="m"))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_brute_iso_is_the_first_isomorphism_in_lexicographic_order(data):
    ta = data.draw(_cycle_sets())
    n = len(ta)
    same = data.draw(st.booleans())
    tb = _ref_relabel(ta, tuple(data.draw(st.permutations(range(n))))) if same else data.draw(_cycle_sets(n))
    with _scan_blocks(data):
        got = brute_iso(CycleSet(ta), CycleSet(tb))
    assert got == next(_ref_morphisms(ta, tb), None)
    assert got is None or _all_ints([got])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_brute_aut_lists_every_automorphism_in_lexicographic_order(data):
    t = data.draw(_cycle_sets())
    with _scan_blocks(data):
        got = brute_aut(CycleSet(t))
    assert got == list(_ref_morphisms(t, t))
    assert _all_ints(got)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_form_is_the_least_relabeled_table(data):
    t = data.draw(_cycle_sets())
    assert check_cycle_set(CycleSet(t)).ok
    with _scan_blocks(data):
        got = canonical_form(CycleSet(t)).table
    assert got == min(_ref_relabel(t, perm) for perm in itertools.permutations(range(len(t))))
    assert _all_ints(got)
