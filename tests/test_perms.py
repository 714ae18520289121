import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cyclesets.perms as perms_module
from cyclesets import (
    CapExceeded,
    NotTransitive,
    automorphisms,
    block_systems,
    closure,
    cycle_type,
    cyclic_cycle_set,
    deform,
    enumerate_classes,
    identity,
    inverse,
    irr_cycle_set,
    is_cycle_set_automorphism,
    is_perm,
    is_transitive,
    orbits,
    relabel,
    sigma_gens,
    to_cycle_set,
)

perms_of = lambda n: st.permutations(range(n)).map(tuple)


def _compose(a, b):
    return tuple(a[x] for x in b)


@given(perms_of(7))
def test_inverse_roundtrip(a):
    assert _compose(a, inverse(a)) == identity(7)
    assert _compose(inverse(a), a) == identity(7)


def test_cycle_type_frozen():
    assert cycle_type((1, 0, 3, 2)) == (2, 2)
    assert cycle_type(identity(5)) == (1, 1, 1, 1, 1)


def test_is_perm():
    assert is_perm((2, 0, 1))
    assert not is_perm((0, 0, 1))
    assert not is_perm((0, 3))
    assert is_perm(np.array([2, 0, 1])) and is_perm((np.int32(1), np.int64(0)))
    assert not is_perm((True, False)) and not is_perm((1, False))
    assert not is_perm((0.0, 1.0))


def test_numpy_permutations_are_accepted_and_bools_refused():
    cs = irr_cycle_set(3, (0, 1, 1), 1)
    perm = (3, 1, 4, 0, 5, 2, 8, 6, 7)
    assert relabel(cs, np.array(perm)) == relabel(cs, perm)
    aut = next(a for a in automorphisms(cs) if a != identity(9))
    assert deform(cs, np.array(aut)) == deform(cs, aut)
    assert is_cycle_set_automorphism(cs, np.array(aut))
    assert not is_cycle_set_automorphism(cyclic_cycle_set(2), (True, False))


def _assert_right_action(gens, elems, mul):
    """mul[i, k] indexes elems[i] o gens[k], one int32 column per given generator."""
    gens = np.array(gens, dtype=np.int32).reshape(-1, elems.shape[1])
    assert mul.dtype == np.int32 and mul.shape == (len(elems), len(gens))
    assert (elems[mul] == elems[:, gens]).all()  # [i, k, x] = elems[i][gens[k][x]]
    assert (elems[mul[0]] == gens).all()


def test_closure_trivial():
    group, mul = closure([identity(3)])
    assert group.dtype == np.int32 and group.shape == (1, 3)
    assert group.tolist() == [list(identity(3))]
    assert mul.tolist() == [[0]]
    group, mul = closure([(1, 0)])
    assert group.tolist() == [[0, 1], [1, 0]] and mul.tolist() == [[1], [0]]
    group, mul = closure(np.empty((0, 2), dtype=int))
    assert group.tolist() == [[0, 1]]
    assert mul.shape == (1, 0) and mul.dtype == np.int32
    with pytest.raises(ValueError):
        closure([])


def test_closure_of_irretractable_sigmas_has_order_eight():
    """The four row maps of the size-4 irretractable table generate a group of order 8."""
    gens = sigma_gens(irr_cycle_set(2, (0, 1), 1))
    group, mul = closure(gens)
    assert group.shape == (8, 4)
    assert group[0].tolist() == list(identity(4))
    assert len({tuple(row) for row in group.tolist()}) == 8
    _assert_right_action(gens, group, mul)


def test_closure_drops_repeated_generators_in_first_appearance_order():
    a, b = (1, 2, 0, 3), (0, 1, 3, 2)
    gens = [a, a, b, a, b]
    group, mul = closure(gens)
    assert group[:3].tolist() == [list(identity(4)), list(a), list(b)]
    distinct, distinct_mul = closure([a, b])
    assert (group == distinct).all()
    _assert_right_action(gens, group, mul)
    # the columns of a repeated generator are equal
    assert (mul[:, [0, 1, 3]] == distinct_mul[:, [0]]).all()
    assert (mul[:, [2, 4]] == distinct_mul[:, [1]]).all()


def _assert_breadth_first(mul):
    """Depths by a plain breadth-first search over mul from the identity do
    not decrease along the index, and the least row of mul holding j != 0
    lies one level above j: the contract the brace's spanning tree reads."""
    rows = mul.tolist()
    depth, queue = {0: 0}, [0]
    for i in queue:
        for j in rows[i]:
            if j not in depth:
                depth[j] = depth[i] + 1
                queue.append(j)
    depths = [depth[j] for j in range(len(rows))]
    assert depths == sorted(depths)
    least_row = {}
    for i, row in enumerate(rows):
        for j in row:
            least_row.setdefault(j, i)
    assert all(depths[least_row[j]] == depths[j] - 1 for j in range(1, len(rows)))


@pytest.mark.parametrize(
    "gens",
    [
        [identity(3)],  # trivial
        np.empty((0, 2), dtype=int),  # no generators
        [(1, 0, 2, 3), (0, 1, 3, 2)],  # not transitive: orbits {0, 1} and {2, 3}
        [inverse(row) for row in irr_cycle_set(3, (0, 1, 1), 1).table],  # an order-81 brace's generators
    ],
)
def test_closure_numbers_breadth_first(gens):
    _assert_breadth_first(closure(gens)[1])


def test_closure_cap(monkeypatch):
    big = tuple(range(1, 30)) + (0,)
    monkeypatch.setattr(perms_module, "_CAP", 10)
    with pytest.raises(CapExceeded):
        closure([big])


def test_orbits():
    assert orbits([identity(3)], 3) == ((0,), (1,), (2,))
    assert orbits([(1, 2, 0)], 3) == ((0, 1, 2),)
    gens = sigma_gens(irr_cycle_set(3, (0, 1, 1), 1))
    assert orbits(gens, 9) == (tuple(range(9)),)


def test_is_transitive():
    assert is_transitive([(1, 2, 0)], 3)
    assert not is_transitive([identity(3)], 3)


def test_block_systems_primitive_group_has_none():
    sym4 = [(1, 0, 2, 3), (1, 2, 3, 0)]
    assert block_systems(sym4, 4) == []


def test_block_systems_klein_four():
    klein = [(1, 0, 3, 2), (2, 3, 0, 1)]
    systems = block_systems(klein, 4)
    assert len(systems) == 3
    assert ((0, 1), (2, 3)) in systems
    assert ((0, 2), (1, 3)) in systems
    assert ((0, 3), (1, 2)) in systems


def test_block_systems_of_irretractable_member():
    # odd p: exactly one system, the rows {a} x Z_p
    gens = sigma_gens(irr_cycle_set(3, (0, 1, 1), 1))
    assert block_systems(gens, 9) == [((0, 1, 2), (3, 4, 5), (6, 7, 8))]


def test_block_systems_of_regular_z8_include_non_minimal_ones():
    """Each least block through 0 and one more point spans a listed system, so
    {0, 2, 4, 6} is listed beside the minimal {0, 4}."""
    assert block_systems([(1, 2, 3, 4, 5, 6, 7, 0)], 8) == [
        ((0, 2, 4, 6), (1, 3, 5, 7)),
        ((0, 4), (1, 5), (2, 6), (3, 7)),
    ]


def test_block_systems_refuse_intransitive_groups():
    with pytest.raises(NotTransitive):
        block_systems([(1, 0, 2, 3)], 4)


def _block_systems_reference(gens, n):
    """Atkinson's union-find over every generator, from every seed."""
    systems = set()
    for seed in range(1, n):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        parent[seed] = 0
        queue = [(0, seed)]
        while queue:
            a, b = queue.pop()
            for g in gens:
                ra, rb = find(g[a]), find(g[b])
                if ra != rb:
                    parent[rb] = ra
                    queue.append((g[a], g[b]))
        blocks: dict = {}
        for x in range(n):
            blocks.setdefault(find(x), []).append(x)
        if len(blocks) > 1:
            systems.add(tuple(sorted(map(tuple, blocks.values()))))
    return sorted(systems)


def test_block_systems_match_reference_on_small_groups():
    z8 = [(1, 2, 3, 4, 5, 6, 7, 0)]
    sym4 = [(1, 0, 2, 3), (1, 2, 3, 0)]
    klein = [(1, 0, 3, 2), (2, 3, 0, 1)]
    for gens, n in ((z8, 8), (sym4, 4), (klein, 4)):
        assert block_systems(gens, n) == _block_systems_reference(gens, n)


_MEMBERS_TO_FIVE = [q for p in (2, 3, 5) for q in enumerate_classes(p)]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_block_systems_match_reference_on_relabeled_members(data):
    cs = to_cycle_set(data.draw(st.sampled_from(_MEMBERS_TO_FIVE)))
    cs = relabel(cs, tuple(data.draw(st.permutations(range(cs.n)))))
    assert block_systems(cs.table, cs.n) == _block_systems_reference(cs.table, cs.n)


@given(st.integers(2, 12).flatmap(lambda n: st.lists(perms_of(n), min_size=2, max_size=3)))
@settings(max_examples=80, deadline=None)
def test_block_systems_match_reference_on_random_groups(gens):
    n = len(gens[0])
    assume(is_transitive(gens, n))
    assert block_systems(gens, n) == _block_systems_reference(gens, n)


def _imprimitive_gens(data):
    """2-3 random elements of S_a wr S_b on a*b points, relabelled at random."""
    a, b = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 3))
    n = a * b
    conj = data.draw(perms_of(n))
    back = inverse(conj)
    gens = []
    for _ in range(data.draw(st.integers(2, 3))):
        outer = data.draw(perms_of(b))
        inner = [data.draw(perms_of(a)) for _ in range(b)]
        g = [outer[i // a] * a + inner[i // a][i % a] for i in range(n)]
        gens.append(tuple(conj[g[back[x]]] for x in range(n)))
    return gens, n


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_block_systems_match_reference_on_imprimitive_groups(data):
    gens, n = _imprimitive_gens(data)
    assume(is_transitive(gens, n))
    assert block_systems(gens, n) == _block_systems_reference(gens, n)


@pytest.mark.slow
def test_block_systems_of_relabeled_irretractable_member_at_23():
    p = 23
    cs = irr_cycle_set(p, tuple(a * a % p for a in range(p)), 1)
    cs = relabel(cs, tuple(np.random.default_rng(23).permutation(p * p).tolist()))
    systems = block_systems(cs.table, cs.n)
    assert len(systems) == 1
    assert len(systems[0]) == p and all(len(block) == p for block in systems[0])


@given(perms_of(5), perms_of(5))
def test_closure_contains_generators_and_products(a, b):
    group, mul = closure([a, b, a])
    _assert_right_action([a, b, a], group, mul)
    _assert_breadth_first(mul)
    assert (mul[:, 0] == mul[:, 2]).all()
    elems = {tuple(row) for row in group.tolist()}
    assert len(elems) == len(group)
    assert a in elems and b in elems
    assert _compose(a, b) in elems
    assert all(inverse(g) in elems for g in elems)
