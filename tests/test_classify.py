import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyclesets.classify as classify_module
import cyclesets.counting as counting_module
import cyclesets.cycleset as cycleset_module
import cyclesets.perms as perms_module
from cyclesets import (
    BoundExceeded,
    CycleSet,
    CyclicParams,
    InvariantViolation,
    IrrParams,
    Mpl2Params,
    NoMatch,
    NotIndecomposable,
    NotSizePSquared,
    Perm,
    RowsNotBijective,
    automorphisms,
    brute_aut,
    brute_iso,
    canonical_phi,
    check_cycle_set,
    classify_size_p2,
    count_formula,
    cycle_type,
    cyclic_cycle_set,
    deform,
    enumerate_classes,
    irr_cycle_set,
    iso_cycle_sets,
    mpl2_cycle_set,
    mpl2_params,
    phi_stabilizer,
    relabel,
    to_cycle_set,
)
from cyclesets.cycleset import _is_morphism

P7_PHI = (0, 1, 2, 4, 4, 2, 1)


# -- the unit actions, against scalar references ---------------------------------


def _phi_act_reference(p, alpha, phi):
    """(alpha . f)(A) = alpha^{-1} * f(alpha*A), one entry at a time."""
    inv = pow(alpha, -1, p)
    return tuple((inv * phi[(alpha * a) % p]) % p for a in range(p))


def _canonical_phi_reference(p, phi):
    return min(_phi_act_reference(p, alpha, phi) for alpha in range(1, p))


def _phi_stabilizer_reference(p, phi):
    phi = tuple(v % p for v in phi)
    return [alpha for alpha in range(1, p) if _phi_act_reference(p, alpha, phi) == phi]


def _canonical_mpl2_pair_reference(p, phi, s):
    """Lex-least (alpha*f, alpha*s) over units alpha; f indexed over Z_p."""
    phi = tuple(v % p for v in phi)
    s = s % p
    return min((tuple((alpha * v) % p for v in phi), (alpha * s) % p) for alpha in range(1, p))


_PRIME_AND_ROW = st.sampled_from((2, 3, 5, 7, 11, 13)).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), min_size=p + 1, max_size=p + 1))
)


@given(_PRIME_AND_ROW)
@settings(max_examples=60)
def test_least_image_matches_the_references(drawn):
    """The kernel's least image and unit under each action equal the min of
    (reference image, unit): defect maps under the twist, (f, s) under joint scaling."""
    p, row = drawn
    phi = row[:p]
    least_twist = counting_module._least_image(phi, p, counting_module._twist)
    assert least_twist == min((_phi_act_reference(p, alpha, phi), alpha) for alpha in range(1, p))
    least_scale = counting_module._least_image(row, p, counting_module._scale)
    assert least_scale == min((tuple(alpha * v % p for v in row), alpha) for alpha in range(1, p))


# -- the twist action on defect maps ------------------------------------------


def _twist_one(p, alpha, phi):
    return tuple(counting_module._twist(np.array([phi]), alpha, p)[0].tolist())


def test_twist_frozen():
    for p, alpha, phi, image in ((3, 1, (0, 1, 1), (0, 1, 1)), (3, 2, (0, 1, 1), (0, 2, 2)), (2, 1, (0, 1), (0, 1))):
        assert _twist_one(p, alpha, phi) == image == _phi_act_reference(p, alpha, phi)


@given(st.integers(1, 4), st.integers(1, 4), st.tuples(*[st.integers(0, 4)] * 5))
def test_twist_is_an_action(a, b, phi):
    p = 5
    assert _twist_one(p, 1, phi) == phi
    assert _twist_one(p, a, phi) == _phi_act_reference(p, a, phi)
    assert _twist_one(p, a, _twist_one(p, b, phi)) == _twist_one(p, (a * b) % p, phi)


def test_phi_orbit_and_canonical():
    assert {_twist_one(3, alpha, (0, 2, 2)) for alpha in (1, 2)} == {(0, 1, 1), (0, 2, 2)}
    assert canonical_phi(3, (0, 2, 2)) == (0, 1, 1)
    assert canonical_phi(7, P7_PHI) == P7_PHI


@given(st.tuples(*[st.integers(0, 4)] * 5), st.integers(1, 4))
def test_canonical_phi_is_orbit_invariant(phi, a):
    assert canonical_phi(5, _twist_one(5, a, phi)) == canonical_phi(5, phi)


def test_phi_stabilizer():
    assert phi_stabilizer(3, (0, 1, 1)) == [1]
    assert phi_stabilizer(7, P7_PHI) == [1, 2, 4]
    assert phi_stabilizer(5, (0, 1, 4, 4, 1)) == [1]


@pytest.mark.parametrize("phi", [(0.5, 1.2, 1.9), ("0", "1", "1"), (0, True, True)], ids=["floats", "strings", "bools"])
def test_defect_maps_that_are_not_integers_are_refused(phi):
    # canonical_phi truncated (0.5, 1.2, 1.9) to (0, 1, 1); phi_stabilizer failed inside numpy on strings
    for check in (canonical_phi, phi_stabilizer):
        with pytest.raises(ValueError, match="integer"):
            check(3, phi)


def test_defect_maps_take_numpy_integers_and_reduce_them():
    assert canonical_phi(3, np.array([3, 5, 5])) == canonical_phi(3, (0, 2, 2)) == (0, 1, 1)
    assert phi_stabilizer(7, np.array(P7_PHI) + 7) == phi_stabilizer(7, P7_PHI)
    assert canonical_phi(3, (3**70, 2, 2)) == (0, 1, 1)


@pytest.mark.parametrize("phi", [(0, 1), (0, 1, 1, 1), ()])
def test_defect_maps_of_the_wrong_length_are_refused(phi):
    for check in (canonical_phi, phi_stabilizer):
        with pytest.raises(ValueError, match="a defect map mod 3 has 3 values"):
            check(3, phi)


def test_joint_scaling_of_level_two_parameters():
    def least(phi, s):
        return counting_module._least_image([*phi, s], 3, counting_module._scale)[0]

    def classified(phi, s):
        return classify_size_p2(mpl2_cycle_set(3, (3,), phi, s))

    assert least((0, 1, 1), 1) == least((0, 2, 2), 2)
    assert least((0, 1, 1), 0) == least((0, 2, 2), 0)
    assert classified((0, 1, 1), 1) == classified((0, 2, 2), 2)
    # scaling only the shift changes the class
    assert least((0, 1, 1), 1) != least((0, 1, 1), 2)
    assert classified((0, 1, 1), 1) != classified((0, 1, 1), 2)


# -- colour refinement ----------------------------------------------------------


def _refine_reference(tables):
    """Joint colour refinement, one Python loop over the triples per round."""
    key_ids: dict = {}
    colours = [[key_ids.setdefault(cycle_type(row), len(key_ids)) for row in t] for t in tables]
    while True:
        keys = [
            [
                (cs[x], tuple(sorted((cs[y], cs[t[x][y]], cs[t[y][x]]) for y in range(len(t)))))
                for x in range(len(t))
            ]
            for t, cs in zip(tables, colours)
        ]
        ids = {key: i for i, key in enumerate(sorted({key for ks in keys for key in ks}))}
        new = [[ids[key] for key in ks] for ks in keys]
        if all(len(set(a)) == len(set(b)) for a, b in zip(colours, new)):
            return new
        colours = new


_REFINE_PARAMS = [q for p in (2, 3, 5) for q in enumerate_classes(p)] + enumerate_classes(7, family="irr")


def _relabeled_member(data):
    cs = to_cycle_set(data.draw(st.sampled_from(_REFINE_PARAMS)))
    return relabel(cs, tuple(data.draw(st.permutations(range(cs.n)))))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_refine_matches_reference_on_relabeled_members(data):
    a = _relabeled_member(data)
    b = relabel(a, tuple(data.draw(st.permutations(range(a.n)))))
    assert classify_module._refine([a.table]) == _refine_reference([a.table])
    assert classify_module._refine([a.table, b.table]) == _refine_reference([a.table, b.table])
    other = _relabeled_member(data)
    if other.n == a.n:
        assert classify_module._refine([a.table, other.table]) == _refine_reference([a.table, other.table])


def _permutation_rows(n):
    return st.lists(st.permutations(range(n)).map(tuple), min_size=n, max_size=n).map(tuple)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(_permutation_rows(n), _permutation_rows(n))))
@settings(max_examples=80, deadline=None)
def test_refine_matches_reference_on_random_permutation_tables(pair):
    a, b = pair
    assert classify_module._refine([a]) == _refine_reference([a])
    assert classify_module._refine([a, b]) == _refine_reference([a, b])


def test_engine_refuses_rows_that_are_not_permutations():
    """x*y = x: the swap is an automorphism, and cycle types of such rows are no invariant."""
    cs = CycleSet(((0, 0), (1, 1)))
    assert brute_aut(cs) == [(0, 1), (1, 0)]
    with pytest.raises(RowsNotBijective):
        automorphisms(cs)
    with pytest.raises(RowsNotBijective):
        iso_cycle_sets(cs, cs)
    with pytest.raises(RowsNotBijective):
        iso_cycle_sets(cyclic_cycle_set(2), cs)


def test_certificates_refuse_a_map_that_is_not_a_morphism(monkeypatch):
    a = irr_cycle_set(3, (0, 1, 1), 1)
    swap = (1, 0, 2, 3, 4, 5, 6, 7, 8)
    b = relabel(a, swap)
    assert swap not in automorphisms(a)  # so a != b, and the identity is no isomorphism a -> b
    assert iso_cycle_sets(a, b) is not None
    monkeypatch.setattr(classify_module, "_search", lambda *args, **kwargs: [tuple(range(9))])
    with pytest.raises(InvariantViolation):
        iso_cycle_sets(a, b)
    monkeypatch.setattr(classify_module, "_search", lambda *args, **kwargs: [tuple(range(9)), swap])
    with pytest.raises(InvariantViolation):
        automorphisms(a)


# -- the backtracking isomorphism engine --------------------------------------


def _search_reference(ta, tb, ca, cb, find_all: bool):
    """The search as it was with a separate queue, undo log and all-n scan."""
    n = len(ta)
    by_colour: dict[int, list[int]] = {}
    for v in range(n):
        by_colour.setdefault(cb[v], []).append(v)
    f = [-1] * n
    g = [-1] * n
    found: list[Perm] = []

    def propagate(seed: int):
        made = []
        queue = [seed]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w in range(n):
                if f[w] == -1:
                    continue
                for x, y in ((u, w), (w, u)):
                    pxy = ta[x][y]
                    qxy = tb[f[x]][f[y]]
                    if f[pxy] == -1:
                        if g[qxy] != -1 or ca[pxy] != cb[qxy]:
                            return made, False
                        f[pxy] = qxy
                        g[qxy] = pxy
                        made.append(pxy)
                        queue.append(pxy)
                    elif f[pxy] != qxy:
                        return made, False
        return made, True

    def undo(made):
        for x in made:
            g[f[x]] = -1
            f[x] = -1

    def extend() -> bool:
        pivot, cands = -1, None
        for x in range(n):
            if f[x] != -1:
                continue
            cs = [v for v in by_colour.get(ca[x], ()) if g[v] == -1]
            if cands is None or len(cs) < len(cands):
                pivot, cands = x, cs
                if not cs:
                    return False
        if cands is None:
            found.append(tuple(f))
            return not find_all
        for v in cands:
            f[pivot] = v
            g[v] = pivot
            made, ok = propagate(pivot)
            if ok and extend():
                undo(made)
                f[pivot] = -1
                g[v] = -1
                return True
            undo(made)
            f[pivot] = -1
            g[v] = -1
        return False

    extend()
    return found


def _assert_iso_matches_reference(a, b):
    ca, cb = classify_module._refine([a.table, b.table])
    first = _search_reference(a.table, b.table, ca, cb, False) if sorted(ca) == sorted(cb) else []
    assert iso_cycle_sets(a, b) == (first[0] if first else None)


def _assert_aut_matches_reference(a):
    c = classify_module._refine([a.table])[0]
    assert automorphisms(a) == sorted(_search_reference(a.table, a.table, c, c, True))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_search_matches_reference_on_members(data):
    a = _relabeled_member(data)
    _assert_aut_matches_reference(a)
    _assert_iso_matches_reference(a, relabel(a, tuple(data.draw(st.permutations(range(a.n))))))
    other = _relabeled_member(data)
    if other.n == a.n:
        _assert_iso_matches_reference(a, other)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(_permutation_rows(n), _permutation_rows(n), st.permutations(range(n)))))
@settings(max_examples=80, deadline=None)
def test_search_matches_reference_on_random_permutation_tables(triple):
    a, b = CycleSet(triple[0]), CycleSet(triple[1])
    _assert_aut_matches_reference(a)
    _assert_iso_matches_reference(a, b)
    _assert_iso_matches_reference(a, relabel(a, tuple(triple[2])))


def test_complete_map_that_is_no_morphism_is_rejected(monkeypatch):
    """On these tables propagation maps every point before it has paired them
    all, and the complete map is no morphism: the array check must reject it,
    as the pairwise scan did, without returning or raising."""
    rejected = []

    def spy(ta, tb, f):
        ok = _is_morphism(ta, tb, f)
        if not ok:
            rejected.append(tuple(f))
        return ok

    monkeypatch.setattr(classify_module, "_is_morphism", spy)
    a = CycleSet(((2, 0, 1), (2, 0, 1), (1, 2, 0)))
    b, c = CycleSet(((0, 2, 1), (1, 0, 2), (2, 1, 0))), CycleSet(((1, 0, 2), (0, 2, 1), (1, 0, 2)))
    assert automorphisms(a) == [(0, 1, 2)]
    assert iso_cycle_sets(a, relabel(a, (1, 2, 0))) == (1, 2, 0)
    assert iso_cycle_sets(b, c) is None
    assert rejected == [(2, 1, 0), (0, 2, 1), (2, 1, 0)]
    _assert_aut_matches_reference(a)
    _assert_iso_matches_reference(a, relabel(a, (1, 2, 0)))
    _assert_iso_matches_reference(b, c)


def test_search_matches_reference_on_relabeled_irretractable_members_at_seven():
    rng = random.Random(7)
    for params in rng.sample(enumerate_classes(7, family="irr"), 4):
        a = _relabeled(to_cycle_set(params), rng)
        _assert_aut_matches_reference(a)
        _assert_iso_matches_reference(a, _relabeled(a, rng))


def test_iso_self_is_identity_like():
    cs = irr_cycle_set(3, (0, 1, 1), 1)
    found = iso_cycle_sets(cs, cs)
    assert found is not None
    assert all(found[cs.table[x][y]] == cs.table[found[x]][found[y]] for x in range(9) for y in range(9))


def test_iso_level2_members_scaling_pair():
    a = mpl2_cycle_set(3, (3,), (0, 1, 1), 1)
    b = mpl2_cycle_set(3, (3,), (0, 2, 2), 2)
    assert iso_cycle_sets(a, b) is not None
    # same defect map, different shift: no isomorphism
    c = mpl2_cycle_set(3, (3,), (0, 2, 2), 1)
    assert iso_cycle_sets(a, c) is None


def test_iso_distinct_irretractable_classes():
    a = irr_cycle_set(3, (0, 1, 1), 1)
    b = irr_cycle_set(3, (1, 0, 0), 1)
    assert iso_cycle_sets(a, b) is None
    assert brute_iso(a, b) is None


def test_iso_cross_family():
    assert iso_cycle_sets(cyclic_cycle_set(4), mpl2_cycle_set(2, (2,), (0, 1), 0)) is None


def test_iso_engine_agrees_with_brute_force(p2_members):
    for i, a in enumerate(p2_members):
        for b in p2_members[i:]:
            fast = iso_cycle_sets(a, b)
            slow = brute_iso(a, b)
            assert (fast is None) == (slow is None)


def test_iso_engine_agrees_with_brute_force_on_all_of_p3(p3_members):
    """Every pair of relabelled p = 3 classes, 16 seeded relabelled self-pairs
    and every relabelled class's automorphism group, against the full 9! scans."""
    rng = random.Random(9)
    moved = [_relabeled(cs, rng) for cs in p3_members]
    for i, a in enumerate(moved):
        for b in moved[i + 1 :]:
            assert iso_cycle_sets(a, b) is None
            assert brute_iso(a, b) is None
    for cs, a in zip(p3_members, moved):
        fast, slow = iso_cycle_sets(cs, a), brute_iso(cs, a)
        assert _is_morphism(cs.table, a.table, fast) and _is_morphism(cs.table, a.table, slow)
        assert slow <= fast  # brute_iso's is the lexicographically first
        assert automorphisms(a) == brute_aut(a)


@given(st.permutations(range(9)))
@settings(max_examples=15, deadline=None)
def test_iso_engine_finds_relabelings(perm):
    cs = irr_cycle_set(3, (1, 2, 2), 1)
    moved = relabel(cs, tuple(perm))
    found = iso_cycle_sets(cs, moved)
    assert found is not None
    assert all(
        found[cs.table[x][y]] == moved.table[found[x]][found[y]]
        for x in range(9)
        for y in range(9)
    )


# -- automorphism groups -------------------------------------------------------


def test_automorphisms_match_brute_force(p2_members, p3_members):
    for cs in p2_members + p3_members:
        assert sorted(automorphisms(cs)) == sorted(brute_aut(cs))


@pytest.mark.parametrize(
    "p,phi",
    [(2, (0, 1)), (3, (0, 1, 1)), (3, (1, 0, 0)), (3, (1, 2, 2)), (5, (0, 1, 4, 4, 1)), (5, (0, 3, 1, 1, 3))],
)
def test_automorphism_count_formula_alpha_one(p, phi):
    count = len(automorphisms(irr_cycle_set(p, phi, 1)))
    assert count == p * len(phi_stabilizer(p, phi))


def _compose(a, b):
    return tuple(a[x] for x in b)


def _scaling_perm(p, alpha):
    return tuple(((alpha * a) % p) * p + (alpha * x) % p for a in range(p) for x in range(p))


def test_automorphism_count_formula_alpha_two():
    auts = automorphisms(irr_cycle_set(7, P7_PHI, 2))
    assert len(auts) == len(phi_stabilizer(7, P7_PHI))
    assert set(auts) == {_scaling_perm(7, alpha) for alpha in (1, 2, 4)}


def test_automorphisms_of_twisted_table_form_the_centraliser():
    """Twisting by a map of order coprime to the row group cuts Aut down to its centraliser."""
    base = irr_cycle_set(7, P7_PHI, 1)
    phi = _scaling_perm(7, 2)
    twisted = deform(base, phi)
    aut_base = automorphisms(base)
    assert len(aut_base) == 21
    centraliser = {g for g in aut_base if _compose(g, phi) == _compose(phi, g)}
    assert set(automorphisms(twisted)) == centraliser


def test_no_coprime_twists_below_seven(p2_members, p3_members):
    """For p <= 5 every automorphism has p-power order, so only the identity
    twist satisfies the coprimality hypothesis and the centraliser statement
    is vacuously settled by aut(deform(cs, id)) == aut(cs)."""
    applicable = 0
    for p, members in [(2, p2_members), (3, p3_members)]:
        for cs in members:
            for g in automorphisms(cs):
                order = 1
                h = g
                while h != tuple(range(cs.n)):
                    h = _compose(g, h)
                    order += 1
                while order % p == 0:
                    order //= p
                if order != 1:
                    applicable += 1
    assert applicable == 0


def test_aut_orders_are_p_powers_at_five():
    for params in random.Random(11).sample(enumerate_classes(5), 25):
        count = len(automorphisms(to_cycle_set(params)))
        while count % 5 == 0:
            count //= 5
        assert count == 1


# -- class enumeration ---------------------------------------------------------


def test_enumerate_lengths():
    assert len(enumerate_classes(2)) == 5
    assert len(enumerate_classes(3)) == 16
    assert len(enumerate_classes(5)) == 811
    for p in (2, 3, 5):
        assert len(enumerate_classes(p)) == count_formula(p).total


def test_enumerate_family_filter():
    assert len(enumerate_classes(3, family="irr")) == 3
    assert len(enumerate_classes(3, family="mpl2")) == 12
    assert enumerate_classes(3, family="cyclic") == [CyclicParams(3)]


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_classes(5, bound=10)


def test_enumerate_members_are_pairwise_distinct(p3_params, p3_members):
    assert len(set(p3_params)) == 16
    for i, a in enumerate(p3_members):
        for b in p3_members[i + 1 :]:
            assert iso_cycle_sets(a, b) is None


def test_enumerate_reps_are_canonical():
    """Per-item scalar references for the shared numpy orbit scan and stabiliser pass."""
    for p in (2, 3, 5, 7):
        irr = enumerate_classes(p, family="irr")
        assert all(q.phi == _canonical_phi_reference(p, q.phi) for q in irr)
        alphas: dict = {}
        for q in irr:
            alphas.setdefault(q.phi, []).append(q.alpha)
        assert all(got == _phi_stabilizer_reference(p, phi) for phi, got in alphas.items())
        irr_keys = [(q.phi, q.alpha) for q in irr]
        assert irr_keys == sorted(set(irr_keys))

        mpl2_keys = []
        for q in enumerate_classes(p, family="mpl2"):
            pair = (tuple(v[0] for v in q.phi), q.s[0])
            assert pair == _canonical_mpl2_pair_reference(p, *pair)
            mpl2_keys.append(pair)
        assert mpl2_keys == sorted(set(mpl2_keys))


@pytest.mark.slow
def test_enumerate_irretractable_classes_at_eleven():
    """The 177,179 irretractable classes at p = 11 match the closed count, and
    a seeded sample of their defect maps carries the reference stabiliser as twists."""
    irr = enumerate_classes(11, family="irr")
    assert len(irr) == count_formula(11).n_irr
    alphas: dict = {}
    for q in irr:
        alphas.setdefault(q.phi, []).append(q.alpha)
    for phi in random.Random(11).sample(sorted(alphas), 500):
        assert alphas[phi] == _phi_stabilizer_reference(11, phi)
    assert all(alphas[phi] == _phi_stabilizer_reference(11, phi) for phi in alphas if len(alphas[phi]) > 1)


# -- recovering parameters from bare tables -------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_classify_roundtrip_under_relabeling(p, p2_params, p3_params):
    rng = random.Random(p)
    for params in {2: p2_params, 3: p3_params}[p]:
        cs = to_cycle_set(params)
        perm = tuple(rng.sample(range(cs.n), cs.n))
        assert classify_size_p2(relabel(cs, perm)) == params


def test_classify_spot_checks_at_five():
    rng = random.Random(5)
    for params in rng.sample(enumerate_classes(5), 8):
        cs = to_cycle_set(params)
        perm = tuple(rng.sample(range(25), 25))
        assert classify_size_p2(relabel(cs, perm)) == params


def test_classify_twisted_member():
    rng = random.Random(7)
    perm = tuple(rng.sample(range(49), 49))
    moved = relabel(irr_cycle_set(7, P7_PHI, 2), perm)
    assert classify_size_p2(moved) == IrrParams(7, P7_PHI, 2)


# the one p = 7 row-type group that mixes twists: three defect maps, alpha in {2, 4}
P7_TWISTED = {
    30: ((0, 1, 2, 4, 4, 2, 1), 2),
    31: ((0, 1, 2, 4, 4, 2, 1), 4),
    56: ((0, 2, 4, 1, 1, 4, 2), 2),
    57: ((0, 2, 4, 1, 1, 4, 2), 4),
    63: ((0, 3, 6, 5, 5, 6, 3), 2),
    64: ((0, 3, 6, 5, 5, 6, 3), 4),
}


def _refuse_class_lists(monkeypatch):
    """Make any read of a class list inside classify fail the test."""

    def refuse(p):
        raise AssertionError(f"classify read the class list at p = {p}")

    monkeypatch.setattr(classify_module, "_irr_orbit_minima", refuse)
    monkeypatch.setattr(classify_module, "_mpl2_orbit_minima", refuse)


def _relabeled(cs, rng):
    return relabel(cs, tuple(rng.sample(range(cs.n), cs.n)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_classify_roundtrip_of_irretractable_classes(p, monkeypatch):
    """Every irretractable class at p <= 7, relabelled, classifies back to its
    parameters without reading a class list; at p = 7 these include the six
    twisted classes, which share their row types."""
    rng = random.Random(p)
    classes = enumerate_classes(p, family="irr")
    if p == 7:
        assert {i: (classes[i].phi, classes[i].alpha) for i in P7_TWISTED} == P7_TWISTED
    _refuse_class_lists(monkeypatch)
    for params in classes:
        assert classify_size_p2(_relabeled(to_cycle_set(params), rng)) == params


def test_classify_roundtrip_of_every_class_to_five_and_a_sample_at_seven(monkeypatch):
    """Two independent relabelings of each class classify back to its listed
    parameters: all 832 classes at p = 2, 3, 5, all 407 irretractable classes
    at p = 7 and 300 seeded level-two ones.  Equal answers on independent
    relabelings test that the classifier is an isomorphism invariant."""
    rng = random.Random(832)
    classes = [q for p in (2, 3, 5) for q in enumerate_classes(p)] + enumerate_classes(7, family="irr")
    classes += rng.sample(enumerate_classes(7, family="mpl2"), 300)
    assert len(classes) == 832 + 407 + 300
    _refuse_class_lists(monkeypatch)
    for params in classes:
        cs = to_cycle_set(params)
        assert [classify_size_p2(_relabeled(cs, rng)) for _ in range(2)] == [params, params]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_read_off_refuses_the_other_families(p):
    """A read-off handed a member of another family raises NoMatch at one of
    its own steps, and on its own family returns the class and a map that
    carries the table onto the class's member, entry by entry."""
    rng = random.Random(p)
    read_offs = {Mpl2Params: classify_module._mpl2_read_off, IrrParams: classify_module._irr_read_off}
    for params in enumerate_classes(p):
        cs = _relabeled(to_cycle_set(params), rng)
        for family, read_off in read_offs.items():
            if not isinstance(params, family):
                with pytest.raises(NoMatch):
                    read_off(np.array(cs.table), p)
                continue
            got, perm = read_off(np.array(cs.table), p)
            member = to_cycle_set(got).table
            assert got == params and sorted(perm.tolist()) == list(range(cs.n))
            assert all(perm[cs.table[x][y]] == member[perm[x]][perm[y]] for x in range(cs.n) for y in range(cs.n))


@pytest.mark.parametrize(
    "own,other",
    [
        (IrrParams(7, P7_PHI, 2), IrrParams(7, P7_PHI, 4)),
        (IrrParams(5, (0, 1, 4, 4, 1), 1), IrrParams(5, (0, 3, 1, 1, 3), 1)),
        (
            mpl2_params(5, (5,), *_canonical_mpl2_pair_reference(5, (0, 1, 2, 3, 4), 1)),
            mpl2_params(5, (5,), *_canonical_mpl2_pair_reference(5, (0, 1, 2, 3, 4), 2)),
        ),
    ],
    ids=["twisted7", "irr5", "mpl2_5"],
)
def test_classify_refutes_a_member_the_table_does_not_map_onto(own, other, monkeypatch):
    """With the certificate's constructor handing back another class's member,
    the map read off fails its check (at every start block, for an
    irretractable member), and classify raises NoMatch: no answer stands
    without its checked map."""
    cs = _relabeled(to_cycle_set(own), random.Random(7))
    assert classify_size_p2(cs) == own
    build = classify_module.to_cycle_set
    monkeypatch.setattr(classify_module, "to_cycle_set", lambda params: build(other))
    with pytest.raises(NoMatch):
        classify_size_p2(cs)


def _beyond_the_class_lists(p: int, rng: random.Random):
    """Seeded members at p with their canonical parameters: random (f, s) and
    random even f with alpha = 1, plus at p = 13 the twisted f(A) = A^4."""
    out = []
    while len(out) < 8:
        f, s = (0, *(rng.randrange(p) for _ in range(p - 1))), rng.randrange(p)
        half = [rng.randrange(p) for _ in range(p // 2 + 1)]
        even = (*half, *half[:0:-1])
        if any(f) and len(set(even)) > 1:
            out.append((mpl2_cycle_set(p, (p,), f, s), mpl2_params(p, (p,), *_canonical_mpl2_pair_reference(p, f, s))))
            out.append((irr_cycle_set(p, even, 1), IrrParams(p, _canonical_phi_reference(p, even), 1)))
    if p == 13:
        quartic = tuple(pow(a, 4, p) for a in range(p))
        out += [(irr_cycle_set(p, quartic, alpha), IrrParams(p, _canonical_phi_reference(p, quartic), alpha)) for alpha in (3, 9)]
    return out


@pytest.mark.parametrize("p", [11, 13])
def test_classify_beyond_the_class_lists(p, monkeypatch):
    """Relabelled members at p = 11 and 13, where the class lists are refused
    or out of reach, classify to their canonical parameters in under 0.5 s each."""
    rng = random.Random(p)
    _refuse_class_lists(monkeypatch)
    for cs, expect in _beyond_the_class_lists(p, rng):
        moved = _relabeled(cs, rng)
        start = time.perf_counter()
        assert classify_size_p2(moved) == expect
        assert time.perf_counter() - start < 0.5


@pytest.mark.slow
def test_classify_at_twenty_three(monkeypatch):
    """Two level-two and two irretractable members at p = 23 (n = 529)."""
    rng = random.Random(23)
    _refuse_class_lists(monkeypatch)
    for cs, expect in _beyond_the_class_lists(23, rng)[:4]:
        assert classify_size_p2(_relabeled(cs, rng)) == expect


@pytest.mark.slow
def test_classify_at_thirty_one(monkeypatch):
    """Two level-two and two irretractable members at p = 31 (n = 961), each
    classified in under 5 s without reading a class list."""
    rng = random.Random(31)
    _refuse_class_lists(monkeypatch)
    for cs, expect in _beyond_the_class_lists(31, rng)[:4]:
        moved = _relabeled(cs, rng)
        start = time.perf_counter()
        assert classify_size_p2(moved) == expect
        assert time.perf_counter() - start < 5


def _one_member_of_each_family(p: int):
    irr = {5: IrrParams(5, (0, 1, 4, 4, 1), 1), 7: IrrParams(7, P7_PHI, 2)}[p]
    return [CyclicParams(p), mpl2_params(p, (p,), *_canonical_mpl2_pair_reference(p, tuple(range(p)), 1)), irr]


@pytest.mark.parametrize("p", [5, 7])
def test_classify_reads_the_family_off_the_count_of_distinct_rows(p, monkeypatch):
    """Classify retracts nothing: 1, p or p*p distinct rows name the family."""
    rng = random.Random(p)
    members = [(_relabeled(to_cycle_set(params), rng), params) for params in _one_member_of_each_family(p)]

    def refuse(*args):
        raise AssertionError("classify retracted the table")

    monkeypatch.setattr(cycleset_module, "retraction", refuse)
    monkeypatch.setattr(cycleset_module, "multipermutation_level", refuse)
    for cs, params in members:
        assert classify_size_p2(cs) == params


def test_classify_walks_transitivity_once(monkeypatch):
    """The indecomposability check is the one transitivity walk; the
    irretractable read-off's system of p blocks does not repeat it."""
    cs = _relabeled(irr_cycle_set(7, P7_PHI, 2), random.Random(7))
    walk, calls = perms_module.is_transitive, []

    def spy(gens, n):
        calls.append(n)
        return walk(gens, n)

    monkeypatch.setattr(perms_module, "is_transitive", spy)
    monkeypatch.setattr(cycleset_module, "is_transitive", spy)
    assert classify_size_p2(cs) == IrrParams(7, P7_PHI, 2)
    assert calls == [49]


def test_classify_refuses_a_count_of_distinct_rows_outside_the_families(monkeypatch):
    """A valid size-4 table with 3 distinct rows, let past the indecomposability
    check, is no family's member."""
    cs = CycleSet(((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)))
    assert check_cycle_set(cs).ok
    monkeypatch.setattr(classify_module, "is_indecomposable", lambda cs: True)
    with pytest.raises(NoMatch, match="3 distinct rows"):
        classify_size_p2(cs)


def test_classify_rejects_wrong_sizes():
    with pytest.raises(NotSizePSquared):
        classify_size_p2(cyclic_cycle_set(6))


def test_classify_rejects_decomposable():
    trivial = CycleSet(tuple(tuple(range(4)) for _ in range(4)))
    with pytest.raises(NotIndecomposable):
        classify_size_p2(trivial)
