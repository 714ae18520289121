import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclesets import (
    ConstantPhi,
    CyclicParams,
    InvariantViolation,
    IrrParams,
    Mpl2Params,
    NotAnAutomorphism,
    cable,
    check_cycle_set,
    check_solution,
    co_params,
    co_simple_solution,
    cyclic_cycle_set,
    deform,
    enumerate_classes,
    irr_cycle_set,
    is_cycle_set_automorphism,
    mirror_perm,
    mpl2_cycle_set,
    mpl2_params,
    multipermutation_level,
    params_from_dict,
    params_to_dict,
    psi_iso_check,
    retraction,
    to_cycle_set,
    to_solution,
)

P7_PHI = (0, 1, 2, 4, 4, 2, 1)  # smallest prime admitting a scaling-symmetric defect map


def test_cyclic_constructor():
    cs = cyclic_cycle_set(4)
    assert cs.table == tuple(tuple((y + 1) % 4 for y in range(4)) for _ in range(4))
    assert check_cycle_set(cs).ok
    with pytest.raises(ValueError):
        cyclic_cycle_set(0)


def test_mpl2_examples():
    small = mpl2_cycle_set(2, (2,), (0, 1), 0)
    assert small.n == 4
    assert check_cycle_set(small).ok
    assert multipermutation_level(small) == 2

    mid = mpl2_cycle_set(3, (3,), (0, 1, 1), 2)
    assert retraction(mid)[0].n == 3

    wide = mpl2_cycle_set(2, (2, 2), (0, (1, 0)), (0, 1))
    assert wide.n == 8
    assert check_cycle_set(wide).ok
    assert multipermutation_level(wide) == 2


def test_mpl2_guards():
    with pytest.raises(ConstantPhi):
        mpl2_cycle_set(3, (3,), (0, 0, 0), 1)
    with pytest.raises(InvariantViolation):
        mpl2_cycle_set(3, (3,), (1, 0, 0), 1)
    with pytest.raises(ValueError):
        mpl2_cycle_set(3, (3,), (0, 1), 1)
    with pytest.raises(ValueError):
        mpl2_cycle_set(1, (3,), (0,), 1)


def test_mpl2_params_normalisation():
    params = mpl2_params(2, (2,), (0, 3), 4)
    assert params.phi == ((0,), (1,))
    assert params.s == (0,)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mpl2_params_scalars_and_tuples_agree_on_every_class(p):
    """Scalars, here shifted by multiples of p, and 1-tuples both give the
    listed record of every class."""
    for q in enumerate_classes(p, family="mpl2"):
        scalars = [v + p * (i % 3 - 1) for i, (v,) in enumerate(q.phi)]
        assert mpl2_params(p, (p,), scalars, q.s[0] - p) == q
        assert mpl2_params(p, (p,), [list(v) for v in q.phi], list(q.s)) == q


def test_irr_constructor():
    cs = irr_cycle_set(2, (0, 1), 1)
    assert cs.n == 4
    assert check_cycle_set(cs).ok
    # defect maps need not vanish at 0
    assert check_cycle_set(irr_cycle_set(3, (1, 0, 0), 1)).ok


def test_irr_guards():
    with pytest.raises(ValueError):
        irr_cycle_set(4, (0, 1, 1, 0), 1)
    with pytest.raises(ConstantPhi):
        irr_cycle_set(3, (1, 1, 1), 1)
    with pytest.raises(InvariantViolation):
        irr_cycle_set(3, (0, 1, 2), 1)  # odd map
    with pytest.raises(InvariantViolation):
        irr_cycle_set(3, (0, 1, 1), 0)


def test_irr_scaling_needs_equivariance():
    # the square map only commutes with scaling by 1: phi(4A) = 16A^2 != 4*phi(A)
    with pytest.raises(InvariantViolation):
        irr_cycle_set(5, (0, 1, 4, 4, 1), 4)
    assert check_cycle_set(irr_cycle_set(5, (0, 1, 4, 4, 1), 1)).ok


def test_irr_nontrivial_scaling_member():
    cs = irr_cycle_set(7, P7_PHI, 2)
    assert check_cycle_set(cs).ok
    assert to_solution(cs).n == 49


def test_automorphism_predicate():
    cyc = cyclic_cycle_set(4)
    assert is_cycle_set_automorphism(cyc, (1, 2, 3, 0))
    assert not is_cycle_set_automorphism(cyc, (1, 0, 2, 3))


def test_deform_identity():
    cs = irr_cycle_set(2, (0, 1), 1)
    assert deform(cs, (0, 1, 2, 3)).table == cs.table


def test_deform_rejects_non_automorphism():
    with pytest.raises(NotAnAutomorphism):
        deform(cyclic_cycle_set(4), (1, 0, 2, 3))


def test_deform_cyclic_by_translation():
    out = deform(cyclic_cycle_set(4), (2, 3, 0, 1))
    assert check_cycle_set(out).ok
    assert multipermutation_level(out) == 1
    assert out.table[0] == (3, 0, 1, 2)


def _scaling_perm(p, alpha):
    return tuple(((alpha * a) % p) * p + (alpha * x) % p for a in range(p) for x in range(p))


def test_deform_by_scaling_gives_twisted_member():
    """Twisting the alpha=1 table by (a,x) -> (2a,2x) lands exactly on the alpha=2 table."""
    base = irr_cycle_set(7, P7_PHI, 1)
    assert deform(base, _scaling_perm(7, 2)).table == irr_cycle_set(7, P7_PHI, 2).table
    assert deform(base, _scaling_perm(7, 4)).table == irr_cycle_set(7, P7_PHI, 4).table


def test_cable_trivial_cases():
    cs = irr_cycle_set(2, (0, 1), 1)
    assert cable(cs, 1).table == cs.table
    # additive exponent of the row group is 2, so any odd k acts trivially
    assert cable(cs, 9).table == cs.table


def test_cable_of_cyclic_squares_the_shift():
    out = cable(cyclic_cycle_set(4), 2)
    assert out.table == tuple(tuple((y + 2) % 4 for y in range(4)) for _ in range(4))


def test_cable_congruent_to_one_is_identity():
    cs = irr_cycle_set(3, (0, 1, 1), 1)
    assert cable(cs, 82).table == cs.table  # 82 = |row group| + 1


def test_cable_by_two_keeps_the_axioms():
    # every irretractable member at p = 3, and the five at p = 5 whose row
    # brace has order 625 (the other 25 have order 15625 and cost a second each)
    small_p5 = {(0, 1, 4, 4, 1), (1, 0, 2, 2, 0), (1, 2, 0, 0, 2), (1, 3, 4, 4, 3), (1, 4, 3, 3, 4)}
    members = enumerate_classes(3, family="irr")
    members += [q for q in enumerate_classes(5, family="irr") if q.phi in small_p5]
    assert len(members) == 8
    for params in members:
        assert check_cycle_set(cable(to_cycle_set(params), 2)).ok


# -- the mirrored presentation -------------------------------------------------


def test_co_params_frozen():
    assert co_params(2, (0, 1), 1) == ((0, 1), 1)
    assert co_params(3, (0, 1, 1), 1) == ((0, 2, 2), 1)
    f, t = co_params(5, (0, 1, 4, 4, 1), 4)
    assert f == tuple((4 * i * i) % 5 for i in range(5))
    assert t == 4


def test_co_simple_solution_valid():
    sol = co_simple_solution(2, (0, 1), 1)
    assert check_solution(sol).ok
    sol = co_simple_solution(3, (0, 2, 2), 1)
    assert check_solution(sol).ok


def test_co_simple_scaling_condition_is_checked():
    # the parameters induced by the invalid square-map member fail the scaling law
    with pytest.raises(InvariantViolation, match="S2"):
        co_simple_solution(5, tuple((4 * i * i) % 5 for i in range(5)), 4)


def test_co_simple_other_guards():
    with pytest.raises(InvariantViolation, match="S1"):
        co_simple_solution(3, (0, 1, 2), 1)
    with pytest.raises(ConstantPhi):
        co_simple_solution(3, (1, 1, 1), 1)
    with pytest.raises(InvariantViolation):
        co_simple_solution(3, (0, 1, 1), 0)


def test_mirror_perm():
    assert mirror_perm(2) == (0, 1, 2, 3)
    assert mirror_perm(3) == (0, 2, 1, 3, 5, 4, 6, 8, 7)


@pytest.mark.parametrize(
    "p,phi,alpha",
    [(2, (0, 1), 1), (3, (0, 1, 1), 1), (3, (1, 0, 0), 1), (3, (1, 2, 2), 1)],
)
def test_mirror_is_an_isomorphism_to_co_simple_form(p, phi, alpha):
    assert psi_iso_check(p, phi, alpha)


def test_mirror_check_at_seven_with_scaling():
    assert psi_iso_check(7, P7_PHI, 2)


# -- parameter records ---------------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [
        CyclicParams(3),
        Mpl2Params(2, (2,), ((0,), (1,)), (1,)),
        Mpl2Params(2, (2, 2), ((0, 0), (1, 0)), (0, 1)),
        IrrParams(3, (0, 1, 1), 1),
        IrrParams(7, P7_PHI, 2),
    ],
)
def test_params_dict_roundtrip(params):
    doc = params_to_dict(params)
    assert params_from_dict(doc) == params
    assert doc["family"] in {"cyclic", "mpl2", "irr"}


def test_to_cycle_set_dispatch():
    assert to_cycle_set(CyclicParams(2)).table == cyclic_cycle_set(4).table
    assert (
        to_cycle_set(Mpl2Params(2, (2,), ((0,), (1,)), (1,))).table
        == mpl2_cycle_set(2, (2,), (0, 1), 1).table
    )
    assert to_cycle_set(IrrParams(2, (0, 1), 1)).table == irr_cycle_set(2, (0, 1), 1).table


def test_family_tables_are_refused_beyond_physical_memory(monkeypatch):
    """The size guard reads physical memory from os.sysconf before building."""
    import os

    from cyclesets import SizeTooLarge

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}  # room for 8 * 22**2 bytes
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    assert to_cycle_set(CyclicParams(3)).n == 9
    for params in (
        CyclicParams(5),
        mpl2_params(5, (5,), (0, 1, 2, 2, 1), 1),
        IrrParams(5, (0, 1, 4, 4, 1), 1),
    ):
        with pytest.raises(SizeTooLarge, match="physical memory"):
            to_cycle_set(params)


def test_composite_cyclic_parameter_is_refused():
    with pytest.raises(ValueError, match="9 is not prime"):
        to_cycle_set(CyclicParams(9))


@pytest.mark.parametrize("invariants", [(0,), (3, -1), ()])
def test_mpl2_invariants_are_checked_before_reducing(invariants):
    with pytest.raises(InvariantViolation, match="invariants must be positive"):
        mpl2_params(3, invariants, (0, 1, 1), 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: irr_cycle_set(3, ("0", "1", "1")),
        lambda: irr_cycle_set(3, (0.5, 1.2, 1.9)),
        lambda: irr_cycle_set(3, (0, True, True)),
        lambda: irr_cycle_set(3, (0, 1, 1), 1.0),
        lambda: co_simple_solution(3, (1, 0, 0), 1.5),
        lambda: co_simple_solution(3, (1.0, 0, 0), 1),
        lambda: mpl2_params(3, (3,), (0, 1.0, 1), 0),
        lambda: mpl2_params(3, (3,), (0, 1, 1), "0"),
        lambda: mpl2_params(3, (3,), (0, np.True_, 1), 0),
        lambda: mpl2_params(2, (2, 2), (0, (1, 0.5)), (0, 1)),
        lambda: mpl2_params(3.5, (3,), (0, 1, 1), 0),
        lambda: co_params(3, (0, 1.5, 1.5), 1),
    ],
    ids=[
        "irr_strings", "irr_floats", "irr_bools", "irr_float_alpha", "co_float_t", "co_float_f",
        "mpl2_float", "mpl2_string_s", "mpl2_numpy_bool", "mpl2_float_digit", "mpl2_float_m", "co_params_floats",
    ],
)
def test_family_parameters_that_are_not_integers_are_refused(build):
    # int() would read "1" as 1 and truncate 1.9 to 1
    with pytest.raises(ValueError, match="integer"):
        build()


def test_family_parameters_take_numpy_integers_and_reduce_them():
    assert mpl2_params(3, (3,), (0, np.int64(1), 1), 0) == mpl2_params(3, (3,), (0, 1, 1), 0)
    assert mpl2_params(3, np.array([3]), np.array([0, 4, 7]), np.int64(3)) == mpl2_params(3, (3,), (0, 1, 1), 0)
    want = irr_cycle_set(3, (0, 1, 1), 1).table
    assert irr_cycle_set(np.int64(3), np.array([3, 4, 10]), np.int64(4)).table == want
    assert irr_cycle_set(3, (3**70, 1, 1), 4).table == want
    co = co_simple_solution(3, (1, 0, 0), 1)
    assert co_simple_solution(3, np.array([4, 0, 3]), np.int64(4)) == co
