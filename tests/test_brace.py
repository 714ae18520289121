import copy
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import cyclesets
from cyclesets import (
    CycleSet,
    InvariantViolation,
    SizeTooLarge,
    block_systems,
    build_perm_brace,
    closure,
    cyclic_cycle_set,
    enumerate_classes,
    irr_cycle_set,
    mpl2_cycle_set,
    sigma_gens,
    sub_cycle_set,
    to_cycle_set,
    verify_brace,
)
from cyclesets.perms import inverse


@pytest.fixture(scope="module")
def brace8():
    return build_perm_brace(irr_cycle_set(2, (0, 1), 1))


@pytest.fixture(scope="module")
def brace81():
    return build_perm_brace(irr_cycle_set(3, (0, 1, 1), 1))


@pytest.fixture(scope="module")
def brace625():
    return build_perm_brace(irr_cycle_set(5, (0, 1, 4, 4, 1), 1))


def test_cyclic_brace_is_trivial():
    br = build_perm_brace(cyclic_cycle_set(4))
    assert br.order == 4
    n = br.order
    assert all(br.add(i, j) == br.circ(i, j) for i in range(n) for j in range(n))
    assert all(br.lam(i, j) == j for i in range(n) for j in range(n))
    assert br.socle().indices == tuple(range(4))


def test_order_eight_brace(brace8):
    assert brace8.order == 8
    assert any(
        brace8.circ(i, j) != brace8.circ(j, i) for i in range(8) for j in range(8)
    )
    assert verify_brace(brace8)


def test_order_eightyone_brace(brace81):
    assert brace81.order == 81
    assert verify_brace(brace81)


def test_brace_identities(brace8):
    br = brace8
    n = br.order
    for a in range(n):
        assert br.add(a, br.zero) == a
        assert br.circ(a, br.zero) == a
        assert br.add(a, br.neg(a)) == br.zero
        assert br.circ(a, br.index_of(br.inv_elems[a])) == br.zero
        assert br.lam(a, br.zero) == br.zero
        for b in range(n):
            assert br.add(a, b) == br.add(b, a)
            # a o b = a + lambda_a(b)
            assert br.circ(a, b) == br.add(a, br.lam(a, b))
    # left distributivity a o (b + c) = a o b - a + a o c on a sample
    rng = np.random.default_rng(1)
    for a, b, c in rng.integers(0, n, size=(50, 3)):
        lhs = br.circ(a, br.add(b, c))
        rhs = br.add(br.add(br.circ(a, b), br.neg(a)), br.circ(a, c))
        assert lhs == rhs


def test_socle_trivial_for_irretractable(brace8, brace81):
    assert brace8.socle().indices == (brace8.zero,)
    assert brace81.socle().indices == (brace81.zero,)


def test_fix_has_size_p(brace8, brace81):
    f8 = brace8.fix()
    f81 = brace81.fix()
    assert len(f8.indices) == 2
    assert len(f81.indices) == 3
    # Fix is a sub-brace in both operations
    assert f8.add_subgroup and f8.circ_subgroup
    assert f81.add_subgroup and f81.circ_subgroup


def _sigma_inverse_embedding(cs, br):
    return [br.index_of(inverse(cs.sigma(x))) for x in range(cs.n)]


@pytest.mark.parametrize("p,phi", [(2, (0, 1)), (3, (0, 1, 1)), (3, (1, 2, 2))])
def test_block_stabilizer_and_fix_geometry(p, phi):
    cs = irr_cycle_set(p, phi, 1)
    br = build_perm_brace(cs)
    system = block_systems(sigma_gens(cs), cs.n)[0]
    stab = br.block_stabilizer(system)
    assert stab.circ_subgroup
    assert br.order // len(stab.indices) == p
    fix = set(br.fix().indices)
    assert fix & set(stab.indices) == {br.zero}

    # the image of the cycle set sits inside the brace as x -> sigma_x^{-1};
    # each block is then a coset of Fix, in both operations
    emb = _sigma_inverse_embedding(cs, br)
    for block in system:
        img = sorted(emb[y] for y in block)
        x = emb[block[0]]
        assert img == sorted(br.add(x, f) for f in fix)
        assert img == sorted(br.circ(x, f) for f in fix)

    # the double coset Fix o x o Fix recovers the whole image
    spread = {br.circ(br.circ(f1, emb[0]), f2) for f1 in fix for f2 in fix}
    assert sorted(spread) == sorted(emb)

    # the points landing in the stabilizer generate the cycle set
    seed = [x for x in range(cs.n) if emb[x] in set(stab.indices)]
    assert seed == [a * p for a in range(p)]
    assert sub_cycle_set(cs, seed) == tuple(range(cs.n))


def test_circ_center(brace8):
    centre = brace8.circ_center()
    assert len(centre.indices) == 2
    assert brace8.zero in centre.indices


def test_add_pow_scalar_matches_repeated_addition(brace81):
    br = brace81
    idx = np.random.default_rng(7).integers(0, br.order, size=12)
    acc = np.full(idx.shape, br.zero)
    for k in range(1, 5):
        acc = np.array([_add_ref(br, int(a), int(i)) for a, i in zip(acc, idx)])
        assert br.add_pow(k, idx).tolist() == acc.tolist()
        assert [int(br.add_pow(k, int(i))) for i in idx] == acc.tolist()
        # (-k)·i is the negative of k·i
        neg = br.add_pow(-k, idx)
        assert all(_add_ref(br, int(a), int(b)) == br.zero for a, b in zip(acc, neg))
    assert br.add_pow(0, idx).tolist() == [br.zero] * idx.size


def test_spans(brace8):
    sigma0 = brace8.index_of(brace8.inv_elems[brace8.gidx[0]])
    assert brace8.perm(sigma0) == irr_cycle_set(2, (0, 1), 1).sigma(0)
    assert brace8.circ_span([]) == (brace8.zero,)
    assert sigma0 in brace8.circ_span([sigma0])
    assert len(brace8.circ_span(range(8))) == 8


@pytest.mark.parametrize(
    "perm",
    [[0.7, 1.2, 2.9, 3.1], ["3", "0", "1", "2"], [3.0, 0.0, 1.0, 2.0], (True, 2, 3, False), [3, 0, 1], [3, 0, 1, 2, 0]],
    ids=["float", "str", "whole_float", "bool", "short", "long"],
)
def test_index_of_refuses_what_is_not_a_row(perm):
    # read as int32, these gave elements 0, 1, 1 and 3
    br = build_perm_brace(to_cycle_set(enumerate_classes(2)[0]))
    assert br.order == 4 and br.index_of([3, 0, 1, 2]) == 1 == br.index_of(br.elems[1])
    with pytest.raises(ValueError):
        br.index_of(perm)


@pytest.mark.parametrize(
    "subset", [[0, -1], [0, 1.5], [0, 8], [True]], ids=["negative", "float", "too_large", "bool"]
)
def test_subsets_outside_the_brace_are_refused(brace8, subset):
    # numpy would read -1 as the last element and truncate 1.5 to 1
    with pytest.raises(ValueError):
        brace8.classify_subset(subset)
    with pytest.raises(ValueError):
        brace8.circ_span(subset)


def _tags_by_brute_force(br, subset):
    members = set(subset)
    R = range(br.order)
    add_closed = all(br.add(a, b) in members for a in members for b in members)
    circ_closed = all(_circ_ref(br, a, b) in members for a in members for b in members)
    lam_stable = all(br.lam(g, a) in members for g in R for a in members)
    inv = [br.index_of(br.inv_elems[g]) for g in R]
    normal = all(_circ_ref(br, _circ_ref(br, g, s), inv[g]) in members for g in R for s in members)
    left_ideal = add_closed and lam_stable
    return add_closed, circ_closed, left_ideal, left_ideal and circ_closed and normal


def _check_tags(br, subset):
    tags = br.classify_subset(subset)
    got = (tags.add_subgroup, tags.circ_subgroup, tags.left_ideal, tags.ideal)
    assert got == _tags_by_brute_force(br, subset), subset
    return got


def test_classify_subset_tags_match_brute_force(brace8, brace81, brace625):
    # per brace: a proper nontrivial ideal (orders 4 and 27), then seeded draws
    for br, ideal_gens in [(brace8, [5, 6]), (brace81, [28, 35])]:
        n = br.order
        rng = np.random.default_rng(3)
        subsets = [[br.zero], br.circ_span(ideal_gens)]
        # random subsets through zero, and o-subgroups spanned by one or two elements
        subsets += [
            sorted({br.zero, *rng.integers(0, n, size=int(rng.integers(1, 6))).tolist()})
            for _ in range(25 if n <= 8 else 6)
        ]
        subsets += [
            br.circ_span(rng.integers(0, n, size=int(rng.integers(1, 3))).tolist())
            for _ in range(25 if n <= 8 else 8)
        ]
        decided = set()
        for subset in subsets:
            ideal = _check_tags(br, subset)[3]
            if 1 < len(subset) < n:
                decided.add(ideal)
        assert decided == {True, False}
    # past the pairwise scan's old caps (2,048 elements for o, 128 for +): the
    # order-125 block stabiliser, it with five non-members, and 200 seeded
    # elements through zero
    br, rng = brace625, np.random.default_rng(5)
    system = block_systems(sigma_gens(irr_cycle_set(5, (0, 1, 4, 4, 1), 1)), 25)[0]
    stab = list(br.block_stabilizer(system).indices)
    assert len(stab) == 125 and _check_tags(br, stab) == (False, True, False, False)
    outside = np.setdiff1d(np.arange(br.order), stab)
    _check_tags(br, sorted(stab + rng.choice(outside, 5, replace=False).tolist()))
    drawn = rng.choice(np.arange(1, br.order), 199, replace=False).tolist()
    _check_tags(br, [br.zero, *sorted(drawn)])


@pytest.mark.parametrize(
    "system",
    [
        [(0, 1, 2), (3, 4, 5)],
        [(0, 1, 2), (3, 4, 5), (6, 7, -1)],
        [(0, 1, 2), (2, 3, 4, 5), (5, 6, 7, 8)],
        [(0, 1, 2), (3, 4, 5), (6, 7, 9)],
    ],
    ids=["uncovered", "negative", "overlapping", "too_large"],
)
def test_block_stabilizer_refuses_a_system_that_is_not_a_partition(brace81, system):
    with pytest.raises(ValueError):
        brace81.block_stabilizer(system)


def test_block_stabilizer_is_not_an_ideal(brace81):
    cs = irr_cycle_set(3, (0, 1, 1), 1)
    system = block_systems(sigma_gens(cs), 9)[0]
    stab = brace81.block_stabilizer(system)
    assert stab.circ_subgroup
    assert not stab.add_subgroup
    assert not stab.ideal


def test_tables_round_trip(brace8):
    circ = brace8.circ_table()
    add = brace8.add_table()
    assert circ.shape == (8, 8) and add.shape == (8, 8)
    assert circ[0].tolist() == list(range(8))
    for i in range(8):
        for j in range(8):
            assert circ[i, j] == _circ_ref(brace8, i, j)
            assert add[i, j] == brace8.add(i, j)


def test_table_guard(brace625):
    with pytest.raises(SizeTooLarge):
        brace625.circ_table()


@pytest.mark.parametrize(
    "cs", [irr_cycle_set(3, (0, 1, 1), 1), mpl2_cycle_set(2, (2,), (0, 1), 1)]
)
def test_brace_elements_are_the_closure_of_the_inverse_rows(cs):
    br = build_perm_brace(cs)
    assert (br.elems == closure([inverse(row) for row in cs.table])[0]).all()
    assert [br.perm(int(g)) for g in br.gidx] == [inverse(row) for row in cs.table]


def test_brace_builds_no_row_index():
    """The closure's products give gidx and plus, and every operation folds
    words through plus: only index_of builds the row index, on its first call."""
    for cs in _small_cycle_sets():
        br = build_perm_brace(cs)
        assert br.order == len(br.elems) and br.levels[0] == slice(br.zero, 1)
        br.socle(), br.fix(), br.circ_center()
        br.block_stabilizer(block_systems(sigma_gens(cs), cs.n)[0])
        assert br.circ_span(br.gidx[:2].tolist())[0] == br.zero
        assert br.circ_table().shape == (br.order, br.order)
        assert verify_brace(br)
        assert "_index" not in vars(br)
    assert br.index_of(br.elems[-1]) == br.order - 1 and "_index" in vars(br)


def test_mpl2_brace_order():
    br = build_perm_brace(mpl2_cycle_set(2, (2,), (0, 1), 1))
    assert br.order in (4, 8)
    assert verify_brace(br)


# -- the translation table and the folds against composition ---------------------

# irretractable p = 5 members with row groups of order 625, 625 and 15625
_P5_PHIS = [(0, 1, 4, 4, 1), (1, 0, 2, 2, 0), (0, 1, 1, 1, 1)]


def _circ_ref(br, a, b):
    """a o b by its definition, the composition of the rows, looked up by row."""
    return br.index_of(br.elems[a][br.elems[b]])


def _plus_ref(br, i, x):
    """i + g_x by its definition, i o g_{i^{-1}(x)}, looked up by row."""
    return br.index_of(br.elems[i][br.elems[br.gidx[br.inv_elems[i, x]]]])


def _word(br, j):
    out = []
    while j != br.zero:
        out.append(int(br.parent_point[j]))
        j = int(br.parent_elem[j])
    return out


def _add_ref(br, i, j):
    for z in _word(br, j):
        i = _plus_ref(br, i, z)
    return i


def _lam_ref(br, i, j):
    """lambda_i(j): lambda_i(g_z) = g_{i(z)}, summed over the word of j."""
    acc = br.zero
    for z in _word(br, j):
        acc = _plus_ref(br, acc, int(br.elems[i, z]))
    return acc


def _minus_ref(br, i, x):
    """i - g_x by its definition: the k with k + g_x = k o g_{k^{-1}(x)} = i.
    Then k = i o g_y^{-1} for a point y with y = k^{-1}(x) = g_y(i^{-1}(x))."""
    u = br.inv_elems[i, x]
    y = next(y for y in range(br.n_points) if br.elems[br.gidx[y], u] == y)
    return br.index_of(br.elems[i][br.inv_elems[br.gidx[y]]])


def _neg_ref(br, i):
    """-i: g_z subtracted from zero for each letter z of the word of i."""
    acc = br.zero
    for z in _word(br, i):
        acc = _minus_ref(br, acc, z)
    return acc


def _small_cycle_sets():
    return [to_cycle_set(q) for p in (2, 3) for q in enumerate_classes(p)]


def _bfs_reference(br):
    """The spanning tree by a breadth-first search over plus from zero, level
    by level, each element hung from its first discovery: (parent_elem,
    parent_point, levels as index arrays)."""
    parent_elem, parent_point = np.full((2, br.order), -1, dtype=np.int64)
    visited = np.arange(br.order) == br.zero
    levels, level = [], np.array([br.zero], dtype=np.int64)
    while level.size:
        levels.append(level)
        dst = br.plus[level].ravel()
        fresh = np.flatnonzero(~visited[dst])
        new, first = np.unique(dst[fresh], return_index=True)
        k, parent_point[new] = np.divmod(fresh[first], br.n_points)
        parent_elem[new] = level[k]
        visited[new] = True
        level = new
    assert visited.all()
    return parent_elem, parent_point, levels


def test_tree_is_the_breadth_first_search_over_plus():
    """Read off the closure's numbering, the tree is the one a second
    breadth-first search over plus builds, and its levels are index ranges."""
    mpl2_5 = mpl2_cycle_set(5, (5,), (0, 0, 0, 0, 1), (0,))
    for cs in [*_small_cycle_sets(), CycleSet([[0]]), *(irr_cycle_set(5, phi, 1) for phi in _P5_PHIS), mpl2_5]:
        br = build_perm_brace(cs)
        parent_elem, parent_point, levels = _bfs_reference(br)
        assert (br.parent_elem == parent_elem).all() and (br.parent_point == parent_point).all()
        assert [list(range(br.order)[s]) for s in br.levels] == [level.tolist() for level in levels]
    assert br.order == 3125


@pytest.mark.parametrize("cs", _small_cycle_sets() + [irr_cycle_set(5, _P5_PHIS[0], 1)])
def test_vouched_subsets_tag_as_classify_subset(cs):
    """socle, fix, block_stabilizer and circ_center vouch that their set is an
    o-subgroup; the vouch skips a span but changes no tag."""
    br = build_perm_brace(cs)
    systems = block_systems(sigma_gens(cs), cs.n)
    for got in (br.socle(), br.fix(), br.circ_center(), *map(br.block_stabilizer, systems)):
        assert got == br.classify_subset(got.indices)


@pytest.mark.parametrize("cs", _small_cycle_sets() + [irr_cycle_set(5, _P5_PHIS[0], 1)])
def test_translation_table_is_composition(cs):
    br = build_perm_brace(cs)
    want = [[_plus_ref(br, i, x) for x in range(br.n_points)] for i in range(br.order)]
    assert br.plus.tolist() == want
    # plus[minus[i, x], x] == i for every i and x
    assert (br.plus[br.minus, np.arange(br.n_points)] == np.arange(br.order)[:, None]).all()


@pytest.mark.parametrize(
    "cs", _small_cycle_sets() + [irr_cycle_set(5, phi, 1) for phi in _P5_PHIS]
)
def test_array_folds_match_the_scalar_folds(cs):
    br = build_perm_brace(cs)
    i, j = np.random.default_rng(br.order).integers(br.order, size=(2, 120))
    pairs = list(zip(i.tolist(), j.tolist()))
    assert br.add_many(i, j).tolist() == [_add_ref(br, a, b) for a, b in pairs]
    assert br.lam_many(i, j).tolist() == [_lam_ref(br, a, b) for a, b in pairs]
    assert br.circ_many(i, j).tolist() == [_circ_ref(br, a, b) for a, b in pairs]
    neg = br.neg_many(i)
    assert neg.tolist() == [_neg_ref(br, a) for a in i.tolist()]
    assert all(_add_ref(br, a, b) == br.zero for a, b in zip(i.tolist(), neg.tolist()))
    assert [br.add(a, b) for a, b in pairs[:20]] == br.add_many(i[:20], j[:20]).tolist()
    assert [br.lam(a, b) for a, b in pairs[:20]] == br.lam_many(i[:20], j[:20]).tolist()
    assert [br.circ(a, b) for a, b in pairs[:20]] == br.circ_many(i[:20], j[:20]).tolist()
    assert [br.neg(a) for a in i[:20].tolist()] == neg[:20].tolist()


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_folds_keep_the_input_shape(brace81, shape):
    br = brace81
    i, j = np.random.default_rng(len(shape)).integers(br.order, size=(2, *shape))
    add, lam, neg = br.add_many(i, j), br.lam_many(i, j), br.neg_many(i)
    assert add.shape == lam.shape == neg.shape == shape
    for k in np.ndindex(shape):
        a, b = int(i[k]), int(j[k])
        assert (add[k], lam[k], neg[k]) == (_add_ref(br, a, b), _lam_ref(br, a, b), _neg_ref(br, a))
    if not shape:
        assert br.add_many(int(i), int(j)).shape == ()


def test_tables_match_the_scalar_api(brace81):
    br = brace81
    pairs = [(i, j) for i in range(br.order) for j in range(br.order)]
    shape = (br.order, br.order)
    assert (br.add_table() == np.reshape([_add_ref(br, i, j) for i, j in pairs], shape)).all()
    lam = [br.lam_row(i) for i in range(br.order)]
    assert (np.array(lam) == np.reshape([_lam_ref(br, i, j) for i, j in pairs], shape)).all()
    assert (br.circ_table() == np.reshape([_circ_ref(br, i, j) for i, j in pairs], shape)).all()


# -- verify_brace's failure path ------------------------------------------------


def _corrupt(br, kind):
    bad = copy.copy(br)
    if kind == "levels":
        # levels 1 and 2 merged: a fold down the levels reads children before their parents
        bad.levels = [br.levels[0], slice(1, br.levels[2].stop), *br.levels[3:]]
        return bad
    if kind == "identity_rows":
        # every row the identity: the folds then give the trivial brace on (G, +)
        bad.elems = np.tile(np.arange(br.n_points, dtype=br.elems.dtype), (br.order, 1))
        return bad
    if kind == "minus":
        # i - g_0 read as i + g_0
        bad.minus = br.minus.copy()
        bad.minus[:, 0] = br.plus[:, 0]
        return bad
    if kind == "parent_elem":
        # hang one element of level 2 under another element of level 1
        j = br.levels[2].start
        bad.parent_elem = br.parent_elem.copy()
        bad.parent_elem[j] = next(e for e in range(br.order)[br.levels[1]] if e != br.parent_elem[j])
        return bad
    # re-point one BFS edge at a point with another generator
    depth = 1 if kind == "parent_point_top" else len(br.levels) - 1
    j = br.levels[depth].start
    z = int(br.parent_point[j])
    bad.parent_point = br.parent_point.copy()
    bad.parent_point[j] = next(y for y in range(br.n_points) if br.gidx[y] != br.gidx[z])
    return bad


_KINDS = ["minus", "parent_elem", "parent_point_top", "parent_point_deep"]


def _message(check, *args, **kwargs):
    with pytest.raises(InvariantViolation) as info:
        check(*args, **kwargs)
    return str(info.value)


# what verify_brace raises on each of _corrupt's kinds
_REFUSALS = {
    "minus": "minus is not the inverse of plus",
    "parent_elem": "the spanning tree is broken",
    "parent_point_top": "the spanning tree is broken",
    "parent_point_deep": "the spanning tree is broken",
    "levels": "the spanning tree is broken",
    "identity_rows": "the rows of elems are not distinct",
}


@pytest.mark.parametrize("kind", _REFUSALS)
@pytest.mark.parametrize(
    "cs, order",
    [
        (mpl2_cycle_set(3, (3,), (0, 1, 1), (1,)), 27),
        (irr_cycle_set(5, _P5_PHIS[0], 1), 625),
        (mpl2_cycle_set(5, (5,), (0, 0, 0, 0, 1), (0,)), 3125),
        (irr_cycle_set(5, _P5_PHIS[2], 1), 15625),
    ],
    ids=["27", "625", "3125", "15625"],
)
def test_verify_refuses_each_corruption_with_its_message(cs, order, kind):
    """One path at every order: the orders past 96, once sampled, refuse
    each corruption with the same message as order 27."""
    br = build_perm_brace(cs)
    assert br.order == order and verify_brace(br)
    assert _message(verify_brace, _corrupt(br, kind)) == _REFUSALS[kind]


def _order_cubed_verify(br):
    """The reference for verify_brace: every brace axiom, and o against the
    composition of the rows, on all order^3 triples of the folds' tables."""
    e, n = br.elems, br.order
    add, circ = (t().astype(np.int16) for t in (br.add_table, br.circ_table))
    lam = np.array([br.lam_row(i) for i in range(n)], dtype=np.int16)
    if not (add == add.T).all():
        raise InvariantViolation("addition is not commutative")
    if not (add[add] == add[:, add]).all():
        raise InvariantViolation("addition is not associative")
    neg = br.neg_many(np.arange(n))
    if not (add[np.arange(n), neg] == br.zero).all():
        raise InvariantViolation("negation failed")
    rhs = add[add[circ[:, :, None], neg[:, None, None]], circ[:, None, :]]
    if not (circ[:, add] == rhs).all():
        raise InvariantViolation("o is not distributive over + in the brace sense")
    if not (lam[:, add] == add[lam[:, :, None], lam[:, None, :]]).all():
        raise InvariantViolation("lambda_a is not additive")
    if not (lam[circ] == lam[:, lam]).all():
        raise InvariantViolation("lambda is not multiplicative in the subscript")
    if not (e[circ] == e[:, e]).all():
        raise InvariantViolation("o is not the composition of the permutations")
    return True


def _verdict(check, br):
    try:
        return check(br)
    except InvariantViolation as exc:
        return str(exc)


def _seeded_corruptions(br, seed):
    """One plus entry reassigned, two entries of one plus column swapped, one
    elems row replaced by a random permutation of the points, and one gidx
    entry reassigned.  No fold reads gidx, so the last keeps every axiom of
    the order^3 check; verify_brace refuses it, as plus[zero] != gidx."""
    rng = np.random.default_rng(seed)
    n, m = br.order, br.n_points
    (i, k), x = rng.choice(n, 2, replace=False), int(rng.integers(m))
    reassigned, swapped, replaced, regen = (copy.copy(br) for _ in range(4))
    reassigned.plus = br.plus.copy()
    reassigned.plus[i, x] = (br.plus[i, x] + rng.integers(1, n)) % n
    swapped.plus = br.plus.copy()
    swapped.plus[[i, k], x] = br.plus[[k, i], x]
    replaced.elems = br.elems.copy()
    replaced.elems[i] = rng.permutation(m)
    regen.gidx = br.gidx.copy()
    regen.gidx[x] = (br.gidx[x] + rng.integers(1, n)) % n
    return [reassigned, swapped, replaced, regen]


def _corruptions(br):
    if br.order == 1:  # every in-range table entry is already zero
        return []
    br.minus  # built here, so that a copy with a corrupted plus keeps it
    bad = [b for seed in range(4) for b in _seeded_corruptions(br, seed)]
    for kind in _KINDS:
        try:
            bad.append(_corrupt(br, kind))
        except (IndexError, StopIteration):  # too few levels or one generator
            pass
    return bad


_DIFFERENTIAL = [*_small_cycle_sets(), CycleSet([[0]])]


def test_verify_is_never_laxer_than_the_order_cubed_check():
    """On every brace at p <= 3 and its corrupted copies, verify_brace passes
    nothing that the check of every axiom on every triple refuses.  It refuses
    more: each extra refusal is a copy whose folds are the original's, a gidx
    entry or a plus entry that no fold reads."""
    extra = []
    for cs in _DIFFERENTIAL:
        br = build_perm_brace(cs)
        assert verify_brace(br) and _order_cubed_verify(br)
        for bad in _corruptions(br):
            got, want = _verdict(verify_brace, bad), _verdict(_order_cubed_verify, bad)
            assert got is not True or want is True, cs
            if got is not True and want is True:
                extra.append(bad)
                assert (bad.add_table() == br.add_table()).all() and (bad.circ_table() == br.circ_table()).all()
    assert len(extra) == 88


@pytest.mark.parametrize(
    "cs, bound",
    [
        (irr_cycle_set(3, (0, 1, 1), 1), 1.5),
        (irr_cycle_set(5, _P5_PHIS[0], 1), 0.5),
        (irr_cycle_set(5, _P5_PHIS[2], 1), 8),
    ],
    ids=["81", "625", "15625"],
)
def test_verify_memory(cs, bound):
    """No check allocates an order^2 or n^3 array: the blocks of conditions 3
    and 5 hold about _CHUNK entries, and the rest is O(order * n).  The
    minus check runs too, as minus is built first."""
    br = build_perm_brace(cs)
    br.minus
    tracemalloc.start()
    try:
        assert verify_brace(br)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < bound


@pytest.mark.parametrize(
    "cs", [mpl2_cycle_set(3, (3,), (0, 1, 1), (1,)), mpl2_cycle_set(5, (5,), (0, 0, 0, 0, 1), (0,))]
)
def test_verify_checks_o_against_composition(cs):
    """Right-multiplying every row by a socle element s leaves each lambda_a
    as it was (lambda_s = id), so the brace axioms on the folds still hold;
    only the rows see it, first zero's, which is no longer the identity."""
    br = build_perm_brace(cs)
    assert br.order in (27, 3125) and verify_brace(br)
    s = br.socle().indices[1]
    bad = copy.copy(br)
    bad.elems = br.elems[:, br.elems[s]]
    i, j = np.random.default_rng(0).integers(br.order, size=(2, 300))
    assert (bad.lam_many(i, j) == br.lam_many(i, j)).all()
    assert _message(verify_brace, bad) == "zero is not the identity"


@pytest.mark.slow
def test_verify_proves_every_brace_at_five():
    """The brace of every one of the 811 classes at p = 5, orders up to 15,625."""
    classes = enumerate_classes(5)
    assert len(classes) == 811
    for q in classes:
        assert verify_brace(build_perm_brace(to_cycle_set(q))), q


def test_subsets_and_restrict_leave_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma, half a megabyte or more of memory
    code = textwrap.dedent(
        """
        import sys
        from cyclesets import build_perm_brace, irr_cycle_set, mpl2_cycle_set, restrict, verify_brace
        restrict(mpl2_cycle_set(2, (2,), (0, 1), 0), [1, 0, 3, 2])
        br = build_perm_brace(irr_cycle_set(3, (1, 2, 2), 1))
        br.socle(), br.fix(), br.circ_center(), br.circ_span([1]), br.classify_subset([0, 1])
        assert br.order == 81 and verify_brace(br)
        print("numpy.ma" in sys.modules)
        """
    )
    src = os.path.dirname(os.path.dirname(cyclesets.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["False"]
