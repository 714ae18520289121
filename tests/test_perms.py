import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclesets import (
    CapExceeded,
    block_systems,
    closure,
    compose,
    cycle_type,
    identity,
    inverse,
    irr_cycle_set,
    is_perm,
    is_transitive,
    orbits,
    perm_order,
    sigma_gens,
)

perms_of = lambda n: st.permutations(range(n)).map(tuple)


def test_compose_pointwise():
    # (0 1 2) after (0 1) on three points
    assert compose((1, 2, 0), (1, 0, 2)) == (2, 1, 0)


def test_compose_identity():
    a = (3, 0, 2, 1)
    assert compose(a, identity(4)) == a
    assert compose(identity(4), a) == a


def test_involution_squares_to_identity():
    swap = (1, 0)
    assert compose(swap, swap) == identity(2)


@given(perms_of(6), perms_of(6), perms_of(6))
def test_compose_associative(a, b, c):
    assert compose(a, compose(b, c)) == compose(compose(a, b), c)


@given(perms_of(7))
def test_inverse_roundtrip(a):
    assert compose(a, inverse(a)) == identity(7)
    assert compose(inverse(a), a) == identity(7)


@given(perms_of(8))
def test_order_is_lcm_of_cycle_lengths(a):
    import math

    assert perm_order(a) == math.lcm(*cycle_type(a))


def test_cycle_type_frozen():
    assert cycle_type((1, 0, 3, 2)) == (2, 2)
    assert cycle_type(identity(5)) == (1, 1, 1, 1, 1)
    assert perm_order((1, 0, 3, 2)) == 2


def test_is_perm():
    assert is_perm((2, 0, 1))
    assert not is_perm((0, 0, 1))
    assert not is_perm((0, 3))


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


def test_closure_cap():
    big = tuple(range(1, 30)) + (0,)
    with pytest.raises(CapExceeded):
        closure([big], cap=10)


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


@given(perms_of(5), perms_of(5))
def test_closure_contains_generators_and_products(a, b):
    group, mul = closure([a, b, a])
    _assert_right_action([a, b, a], group, mul)
    assert (mul[:, 0] == mul[:, 2]).all()
    elems = {tuple(row) for row in group.tolist()}
    assert len(elems) == len(group)
    assert a in elems and b in elems
    assert compose(a, b) in elems
    assert all(inverse(g) in elems for g in elems)
