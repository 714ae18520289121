import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclesets import (
    CycleSet,
    InducedTableIllDefined,
    InvariantViolation,
    NotTransitive,
    SearchOptions,
    Solution,
    check_cycle_set,
    assert_valid,
    build_perm_brace,
    cyclic_cycle_set,
    enumerate_classes,
    enumerate_cycle_sets,
    from_solution,
    irr_cycle_set,
    is_indecomposable,
    is_irretractable,
    is_simple,
    mpl2_cycle_set,
    multipermutation_level,
    quotients,
    relabel,
    restrict,
    retraction,
    sigma_gens,
    sub_cycle_set,
    to_cycle_set,
)
from cyclesets.cycleset import _induced_table
from cyclesets.perms import _roots, inverse


def test_cyclic_shift_table_is_valid():
    rep = check_cycle_set(cyclic_cycle_set(2))
    assert rep.ok
    assert rep.square_law_witness is None


def test_square_law_witness_frozen():
    # sigma_0 swaps, sigma_1 fixes: (0*1)*(0*0) = 0 but (1*0)*(1*0) = 1
    bad = CycleSet(((1, 0), (0, 1)))
    rep = check_cycle_set(bad)
    assert not rep.square_law_ok
    assert rep.square_law_witness == (0, 1, 0)
    assert not rep.diagonal_bijective_ok


def test_rows_must_be_bijective():
    rep = check_cycle_set(CycleSet(((0, 0), (1, 0))))
    assert not rep.rows_bijective_ok
    assert rep.rows_bijective_witness == 0


def test_assert_valid_raises():
    with pytest.raises(InvariantViolation):
        assert_valid(CycleSet(((1, 0), (0, 1))))
    cs = mpl2_cycle_set(3, (3,), (0, 1, 1), 0)
    assert assert_valid(cs) is cs


def test_validity_raises_name_their_site_and_the_report():
    bad = CycleSet(((1, 0), (0, 1)))
    rep = check_cycle_set(bad)
    with pytest.raises(InvariantViolation) as info:
        assert_valid(bad)
    assert str(info.value) == f"not a cycle set: {rep}"
    with pytest.raises(InvariantViolation) as info:
        from_solution(Solution(bad.table, bad.table))  # lam is its own row inverse
    assert str(info.value) == f"solution does not come from a cycle set: {rep}"


def test_table_shape_checked():
    with pytest.raises(ValueError):
        CycleSet(((0, 1),))
    with pytest.raises(ValueError):
        CycleSet(((0, 2), (1, 0)))


def test_sigma_gens():
    assert sigma_gens(CycleSet(((0,),))) == [(0,)]
    cyc = sigma_gens(cyclic_cycle_set(3))
    assert cyc == [(1, 2, 0)] * 3
    # irretractable members have pairwise distinct rows
    irr = sigma_gens(irr_cycle_set(2, (0, 1), 1))
    assert len(set(irr)) == 4


def test_indecomposable_examples():
    assert is_indecomposable(cyclic_cycle_set(4))
    # x*y = y is two fused singletons; every sigma is the identity
    assert not is_indecomposable(CycleSet(((0, 1), (0, 1))))


def test_retraction_of_cyclic_collapses_at_once():
    ret, proj = retraction(cyclic_cycle_set(4))
    assert ret.n == 1
    assert proj == (0, 0, 0, 0)
    assert multipermutation_level(cyclic_cycle_set(4)) == 1
    assert multipermutation_level(cyclic_cycle_set(9)) == 1


def test_retraction_tower_of_level_two_member():
    cs = mpl2_cycle_set(3, (3,), (0, 1, 1), 2)
    ret, proj = retraction(cs)
    assert ret.n == 3
    assert len(set(proj)) == 3
    assert multipermutation_level(cs) == 2


def test_irretractable_members_do_not_retract():
    cs = irr_cycle_set(3, (0, 1, 1), 1)
    ret, proj = retraction(cs)
    assert ret.n == cs.n
    assert sorted(proj) == list(range(9))
    assert multipermutation_level(cs) is None
    assert is_irretractable(cs)
    assert not is_irretractable(cyclic_cycle_set(4))


def test_singleton_is_level_zero():
    assert multipermutation_level(CycleSet(((0,),))) == 0


def test_sub_cycle_set_generation():
    cs = irr_cycle_set(3, (0, 1, 1), 1)
    assert sub_cycle_set(cs, range(9)) == tuple(range(9))
    # the first column {(a, 0)} generates everything
    assert sub_cycle_set(cs, [0, 3, 6]) == tuple(range(9))
    assert sub_cycle_set(cyclic_cycle_set(4), [0]) == (0, 1, 2, 3)


def test_restrict_to_closed_subset():
    cs = cyclic_cycle_set(4)
    assert restrict(cs, range(4)).table == cs.table


@pytest.mark.parametrize(
    "points", [[0, 0], [-2], [0.0, 1.0], [True, False]], ids=["repeat", "negative", "float", "bool"]
)
def test_restrict_refuses_points_it_would_misread(points):
    # numpy would index a repeated point twice and wrap -2 round to point 0
    with pytest.raises(ValueError):
        restrict(CycleSet([[0, 1], [0, 1]]), points)


@pytest.mark.parametrize(
    "subset", [[-1], [1.5], [9], [True]], ids=["negative", "float", "too_large", "bool"]
)
def test_sub_cycle_set_refuses_points_outside_the_table(subset):
    # -1 would enter the result as a point, and 1.5 would be truncated to 1
    with pytest.raises(ValueError):
        sub_cycle_set(irr_cycle_set(3, (0, 1, 1), 1), subset)


@pytest.mark.parametrize(
    "subset", [[3, True], [0, np.False_], [np.int64(2), True, 4]], ids=["bool", "numpy_bool", "numpy_int_and_bool"]
)
def test_subsets_mixing_bools_with_ints_are_refused(subset):
    # numpy reads such a list as ints: [3, True] would close {1, 3}
    cs = irr_cycle_set(3, (0, 1, 1), 1)
    for take in (lambda s: sub_cycle_set(cs, s), lambda s: restrict(cs, s), build_perm_brace(cs).classify_subset):
        with pytest.raises(ValueError):
            take(subset)
    assert sub_cycle_set(cs, [3, 1]) == sub_cycle_set(cs, np.array([3, 1]))


def test_quotients_of_cyclic():
    found = quotients(cyclic_cycle_set(4))
    assert len(found) == 1
    partition, q = found[0]
    assert partition == ((0, 2), (1, 3))
    assert q.n == 2
    assert check_cycle_set(q).ok
    assert not is_simple(cyclic_cycle_set(4))


def test_size_four_irretractable_is_simple():
    cs = irr_cycle_set(2, (0, 1), 1)
    assert quotients(cs) == []
    assert is_simple(cs)


def test_level_two_member_has_size_p_quotient():
    cs = mpl2_cycle_set(3, (3,), (0, 1, 1), 0)
    sizes = {q.n for _, q in quotients(cs)}
    assert 3 in sizes
    assert not is_simple(cs)


def _join_partitions(a, b, n):
    """The finest partition coarser than both a and b, as sorted blocks."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for part in (a, b):
        for block in part:
            for x in block[1:]:
                parent[find(x)] = find(block[0])
    blocks: dict = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(sorted(v)) for v in blocks.values()))


def _quotients_reference(cs):
    """Quotients as a filter: the principal congruences Cg(0, s), each the
    finest partition joining 0 and s that the rows and the columns respect,
    closed under joins, kept where the induced table is well defined.  It
    shares no code with the library's seed loop."""
    n = cs.n
    if n <= 1:
        return []
    maps = [*cs.table, *zip(*cs.table)]
    labels = [_finest_invariant_partition(maps, n, [(0, s)]) for s in range(1, n)]
    # each point joined with its least block-mate spells the partition
    systems = {_join_partitions(list(enumerate(lab)), (), n) for lab in labels if lab is not None}
    frontier = list(systems)
    while frontier:
        s = frontier.pop()
        for t in list(systems):
            j = _join_partitions(s, t, n)
            if 1 < len(j) < n and j not in systems:
                systems.add(j)
                frontier.append(j)
    out = []
    for system in sorted(systems):
        cls = np.empty(n, dtype=np.intp)
        for i, block in enumerate(system):
            cls[list(block)] = i
        try:
            induced, _ = _induced_table(cs, cls)
        except InducedTableIllDefined:
            continue
        out.append((system, induced))
    return out


def _differential_inputs():
    """Every class at p <= 3 and one relabelling of each, the cyclic tables to
    n = 12, the oracle's indecomposable tables to n = 5, the level-two
    members over Z_2 x Z_2, Z_3 and Z_4 that the acceptance tests convert,
    and relabelled p = 5 members: every principal congruence of an
    irretractable one is the whole set, and the seed loop skips seeds by
    the blocks that the rows alone span."""
    rng = random.Random(20261020)
    out = []
    for q in enumerate_classes(2) + enumerate_classes(3):
        cs = to_cycle_set(q)
        out += [cs, relabel(cs, tuple(rng.sample(range(cs.n), cs.n)))]
    for q in enumerate_classes(5, family="irr")[::10] + enumerate_classes(5, family="mpl2")[::300]:
        out.append(relabel(to_cycle_set(q), tuple(rng.sample(range(25), 25))))
    out += [cyclic_cycle_set(n) for n in range(1, 13)]
    for n in range(1, 6):
        out += enumerate_cycle_sets(SearchOptions(n, indecomposable_only=True)).classes
    out += [
        mpl2_cycle_set(2, (3,), (0, 2), (1,)),
        mpl2_cycle_set(2, (4,), (0, 3), (2,)),
        mpl2_cycle_set(2, (2, 2), (0, (1, 0)), (0, 1)),
        mpl2_cycle_set(3, (3,), (0, 1, 2), (1,)),
    ]
    return out


@pytest.mark.parametrize("cs", _differential_inputs(), ids=lambda cs: f"n{cs.n}")
def test_quotients_match_the_block_system_filter(cs):
    want = _quotients_reference(cs)
    assert [(part, q.table) for part, q in quotients(cs)] == [(part, q.table) for part, q in want]
    assert is_simple(cs) == (cs.n > 1 and not want)


def test_quotients_refuse_decomposable_input():
    cs = assert_valid(CycleSet(((0, 1), (0, 1))))  # x*y = y: two fixed points
    with pytest.raises(NotTransitive):
        quotients(cs)
    with pytest.raises(NotTransitive):
        is_simple(cs)


def _finest_invariant_partition(maps, n, pairs):
    """Each point's least block-mate in the finest partition joining ``pairs``
    that every map respects, merging g(x) and g(y) for every pair of
    block-mates until nothing changes; None for one block."""
    label = list(range(n))

    def merge(a, b):
        if label[a] == label[b]:
            return False
        old, new = max(label[a], label[b]), min(label[a], label[b])
        label[:] = [new if v == old else v for v in label]
        return True

    for a, b in pairs:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for g in maps:
            for x in range(n):
                for y in range(n):
                    if label[x] == label[y] and merge(g[x], g[y]):
                        changed = True
    return None if len(set(label)) == 1 else label


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_roots_match_brute_force_on_a_tables_columns(data):
    """A table's columns y -> y*x are maps, seldom permutations."""
    q = data.draw(st.sampled_from(enumerate_classes(2) + enumerate_classes(3)))
    cs = to_cycle_set(q)
    cs = relabel(cs, tuple(data.draw(st.permutations(range(cs.n)))))
    n = cs.n
    columns = np.array(cs.table).T.tolist()
    maps = data.draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
    assert _roots(maps, n, pairs) == _finest_invariant_partition(maps, n, pairs)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_roots_match_brute_force_on_arbitrary_maps(data):
    n = data.draw(st.integers(1, 7))
    point = st.integers(0, n - 1)
    maps = data.draw(st.lists(st.lists(point, min_size=n, max_size=n), max_size=3))
    pairs = data.draw(st.lists(st.tuples(point, point), max_size=3))
    assert _roots(maps, n, pairs) == _finest_invariant_partition(maps, n, pairs)


@st.composite
def member_and_perm(draw):
    kind = draw(st.sampled_from(["cyclic", "mpl2", "irr"]))
    if kind == "cyclic":
        cs = cyclic_cycle_set(draw(st.sampled_from([2, 3, 4, 9])))
    elif kind == "mpl2":
        phi = (0,) + tuple(draw(st.lists(st.integers(0, 2), min_size=2, max_size=2)))
        if phi == (0, 0, 0):
            phi = (0, 1, 0)
        cs = mpl2_cycle_set(3, (3,), phi, draw(st.integers(0, 2)))
    else:
        cs = irr_cycle_set(2, (0, 1), 1)
    perm = tuple(draw(st.permutations(range(cs.n))))
    return cs, perm


@given(member_and_perm())
@settings(max_examples=40, deadline=None)
def test_relabel_preserves_validity_and_inverts(pair):
    cs, perm = pair
    moved = relabel(cs, perm)
    assert check_cycle_set(moved).ok
    assert relabel(moved, inverse(perm)).table == cs.table


@given(member_and_perm())
@settings(max_examples=20, deadline=None)
def test_relabel_preserves_retraction_profile(pair):
    cs, perm = pair
    assert multipermutation_level(relabel(cs, perm)) == multipermutation_level(cs)
