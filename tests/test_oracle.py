import pytest
from hypothesis import given, settings, strategies as st

from cyclesets import (
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


def test_jobs_do_not_change_the_answer(n4_all):
    split = enumerate_cycle_sets(SearchOptions(n=4, jobs=2))
    assert {cs.table for cs in split.classes} == {cs.table for cs in n4_all.classes}
    assert split.complete


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
