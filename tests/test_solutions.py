import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclesets import (
    Solution,
    brute_iso,
    check_solution,
    classify_size_p2,
    co_params,
    co_simple_solution,
    cyclic_cycle_set,
    CyclicParams,
    enumerate_classes,
    from_solution,
    irr_cycle_set,
    mpl2_cycle_set,
    to_cycle_set,
    to_solution,
)
from cyclesets.solutions import _braid_witness


def _r(sol, x, y):
    """r(x, y) = (lam_x(y), rho_y(x))."""
    return sol.lam[x][y], sol.rho[y][x]


def _pair_solution(n, rule):
    """Assemble a Solution from r(x, y) = rule(x, y)."""
    lam = [[0] * n for _ in range(n)]
    rho = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            u, v = rule(x, y)
            lam[x][y] = u
            rho[y][x] = v
    return Solution(tuple(map(tuple, lam)), tuple(map(tuple, rho)))


def test_cyclic_solution_formula():
    # the size-p^2 shift table gives r(x, y) = (y - 1, x + 1)
    for n in (4, 9):
        sol = to_solution(cyclic_cycle_set(n))
        for x in range(n):
            for y in range(n):
                assert _r(sol, x, y) == ((y - 1) % n, (x + 1) % n)


def test_singleton_solution_is_identity():
    sol = to_solution(cyclic_cycle_set(1)) if False else to_solution(
        from_solution(_pair_solution(1, lambda x, y: (0, 0)))
    )
    assert _r(sol, 0, 0) == (0, 0)


def test_from_solution_of_reversed_shift():
    """r(x, y) = (y + 1, x - 1) encodes the shift class with the opposite orientation."""
    sol = _pair_solution(4, lambda x, y: ((y + 1) % 4, (x - 1) % 4))
    assert check_solution(sol).ok
    cs = from_solution(sol)
    # lambda_x(y) = y + 1, so the table is x*y = y - 1: a relabel of the shift table
    assert cs.table == tuple(tuple((y - 1) % 4 for y in range(4)) for _ in range(4))
    assert brute_iso(cs, cyclic_cycle_set(4)) is not None
    assert classify_size_p2(cs) == CyclicParams(2)


def test_flip_solution_passes():
    rep = check_solution(_pair_solution(3, lambda x, y: (y, x)))
    assert rep.ok


def test_involutivity_witness_frozen():
    # r(x, y) = (y, x + 1) on two points: r^2(0, 0) = (1, 1)
    sol = _pair_solution(2, lambda x, y: (y, (x + 1) % 2))
    rep = check_solution(sol)
    assert rep.nondegenerate_ok
    assert not rep.involutive_ok
    assert rep.involutive_witness == (0, 0)


def test_braiding_violation_detected():
    sol = to_solution(irr_cycle_set(2, (0, 1), 1))
    rho = [list(row) for row in sol.rho]
    rho[0][0], rho[0][1] = rho[0][1], rho[0][0]
    tampered = Solution(sol.lam, tuple(map(tuple, rho)))
    rep = check_solution(tampered)
    assert not rep.ok


def test_braid_scan_proves_the_class_and_co_solutions():
    """check_solution settles these by the square law, the kernel that
    check_cycle_set runs too; the triple scan evaluates the braid relation
    itself, independently of it."""
    for p in (2, 3):
        sols = [to_solution(to_cycle_set(q)) for q in enumerate_classes(p)]
        sols += [co_simple_solution(q.p, *co_params(q.p, q.phi, q.alpha)) for q in enumerate_classes(p, family="irr")]
        for sol in sols:
            assert _braid_witness(np.array(sol.lam, dtype=np.intp), np.array(sol.rho, dtype=np.intp)) is None


def test_solution_shape_checked():
    with pytest.raises(ValueError):
        Solution(((0, 1),), ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Solution(((0, 3), (1, 0)), ((1, 0), (0, 1)))


def test_degenerate_rows_reported():
    rep = check_solution(Solution(((0, 0), (1, 0)), ((1, 0), (0, 1))))
    assert not rep.nondegenerate_ok
    assert rep.nondegenerate_witness == ("lam", 0)


# -- the three closed-form solution families ---------------------------------


def _level2_rule(p, phi, s):
    chi = lambda v: 1 if v % p == 0 else 0

    def rule(xx, yy):
        a, x = divmod(xx, p)
        b, y = divmod(yy, p)
        u = ((b - 1) % p, (y - chi(b - 1) * s - phi[(b - 1 - a) % p]) % p)
        v = ((a + 1) % p, (x + chi(a) * s + phi[(a - b + 1) % p]) % p)
        return u[0] * p + u[1], v[0] * p + v[1]

    return rule


@pytest.mark.parametrize(
    "p,phi,s",
    [(2, (0, 1), 1), (2, (0, 1), 0), (3, (0, 1, 1), 2), (3, (0, 2, 1), 1)],
)
def test_level2_solution_closed_form(p, phi, s):
    inline = _pair_solution(p * p, _level2_rule(p, phi, s))
    ours = to_solution(mpl2_cycle_set(p, (p,), phi, s))
    assert inline.lam == ours.lam and inline.rho == ours.rho
    assert from_solution(inline).table == mpl2_cycle_set(p, (p,), phi, s).table


def _irr_rule(p, phi, alpha, rho_sign):
    """Closed form for the irretractable family; rho_sign picks the last Phi argument.

    rho_sign=+1 is the form the lambda/rho derivation actually yields,
    alpha*x + Phi(alpha*a + alpha*x - b); rho_sign=-1 flips the middle term
    (the two agree only at p=2, where -x = x).
    """
    ainv = pow(alpha, -1, p)

    def rule(xx, yy):
        a, x = divmod(xx, p)
        b, y = divmod(yy, p)
        u = ((ainv * b - x) % p, (ainv * y - phi[(ainv * b - x - a) % p]) % p)
        v = (
            (alpha * a + y - phi[(b - alpha * x - alpha * a) % p]) % p,
            (alpha * x + phi[(alpha * a + rho_sign * alpha * x - b) % p]) % p,
        )
        return u[0] * p + u[1], v[0] * p + v[1]

    return rule


@pytest.mark.parametrize(
    "p,phi",
    [(2, (0, 1)), (3, (0, 1, 1)), (3, (0, 2, 2)), (5, (0, 1, 2, 2, 1)), (5, (0, 2, 3, 3, 2))],
)
def test_irretractable_solution_closed_form(p, phi):
    inline = _pair_solution(p * p, _irr_rule(p, phi, 1, +1))
    ours = to_solution(irr_cycle_set(p, phi, 1))
    assert inline.lam == ours.lam and inline.rho == ours.rho
    assert check_solution(inline).ok


def test_irretractable_rho_sign_matters_for_odd_p():
    """With the middle term negated the closed form stops being a solution for p > 2."""
    same = _pair_solution(4, _irr_rule(2, (0, 1), 1, -1))
    assert same.rho == to_solution(irr_cycle_set(2, (0, 1), 1)).rho

    flipped = _pair_solution(9, _irr_rule(3, (0, 1, 1), 1, -1))
    good = to_solution(irr_cycle_set(3, (0, 1, 1), 1))
    assert flipped.rho != good.rho
    assert not check_solution(flipped).ok


def test_size4_irretractable_matches_closed_form_all_pairs():
    sol = to_solution(irr_cycle_set(2, (0, 1), 1))
    rule = _irr_rule(2, (0, 1), 1, +1)
    assert all(_r(sol, x, y) == rule(x, y) for x, y in itertools.product(range(4), repeat=2))


# -- conversion roundtrips ----------------------------------------------------


@pytest.mark.parametrize(
    "cs",
    [
        cyclic_cycle_set(4),
        cyclic_cycle_set(9),
        mpl2_cycle_set(2, (2,), (0, 1), 1),
        mpl2_cycle_set(3, (3,), (0, 2, 2), 0),
        mpl2_cycle_set(2, (2, 2), (0, (1, 0)), (0, 1)),
        irr_cycle_set(2, (0, 1), 1),
        irr_cycle_set(3, (0, 2, 2), 1),
    ],
    ids=lambda cs: f"n{cs.n}",
)
def test_roundtrip_through_solution(cs):
    sol = to_solution(cs)
    assert check_solution(sol).ok
    assert from_solution(sol).table == cs.table


@given(st.integers(2, 5))
@settings(max_examples=4, deadline=None)
def test_solution_of_shift_table_roundtrips(n):
    sol = to_solution(cyclic_cycle_set(n))
    back = from_solution(sol)
    assert to_solution(back).lam == sol.lam
