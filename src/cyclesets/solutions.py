"""Involutive set-theoretic solutions r(x,y) = (lam_x(y), rho_y(x)).

Conversion to and from cycle sets: lam_x is the inverse of the row x*(-),
and rho_y(x) = (lam_x^{-1}(y)) * x.

Rump's correspondence (Adv. Math. 193 (2005), Prop. 1; Etingof-Schedler-
Soloviev, Duke Math. J. 1999): when every lam_x is a permutation and r is
involutive, r(r(x, y)) = (x, y) forces rho_y(x) = lam_{lam_x(y)}^{-1}(x), so
lam alone determines r, and r satisfies the braid relation exactly when
x*y = lam_x^{-1}(y) satisfies the square law (x*y)*(x*z) = (y*x)*(y*z).
``check_solution`` decides the braid relation that way whenever it can.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycleset import CycleSet, _first_mismatch, _square_law_witness, _Table, _table, assert_valid
from .errors import InvariantViolation
from .perms import inverse_rows


@dataclass(frozen=True)
class Solution:
    """lam[x][y] = lam_x(y) and rho[y][x] = rho_y(x)."""

    lam: _Table
    rho: _Table

    def __post_init__(self):
        lam = _table(self.lam, "solution")
        if len(self.rho) != len(lam):
            raise ValueError("lam and rho must have the same size")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "rho", _table(self.rho, "solution"))

    @property
    def n(self) -> int:
        return len(self.lam)


@dataclass(frozen=True)
class SolutionReport:
    nondegenerate_ok: bool
    nondegenerate_witness: tuple[str, int] | None
    involutive_ok: bool
    involutive_witness: tuple[int, int] | None
    braiding_ok: bool
    braiding_witness: tuple[int, int, int] | None

    @property
    def ok(self) -> bool:
        return self.nondegenerate_ok and self.involutive_ok and self.braiding_ok


def _braid_witness(lam: np.ndarray, rho: np.ndarray) -> tuple[int, int, int] | None:
    """The first (x, y, z) at which r12 r23 r12 != r23 r12 r23, evaluated on
    the triples themselves, for intp tables lam[x][y] and rho[y][x]; None if
    the braid relation holds."""
    n = len(lam)
    # r(x, y) = (L[x*n + y], R[x*n + y]) on the flat pair index, packed as P = L*n + R.
    L, R = lam.ravel(), rho.T.ravel()
    rho_t = R.reshape(n, n)  # rho_t[y, z] = rho_z(y)
    P = L * n + R

    # r12 r23 r12 against r23 r12 r23 at (x, y, z), z along the second axis,
    # each side's triple (a, b, c) packed as a*n^2 + b*n + c.  The first step
    # of each side depends on one pair only: r(x, y) on the left, and on the
    # right r(y, -), which is row y of lam and of rho_t.
    def mismatches(chunks):
        for pairs in chunks:
            x, y = np.divmod(pairs, n)
            a, b = L[pairs], R[pairs]  # r12: (a, b, z)
            # r23: (a, lam[b], rho_t[b]), then r12 on the first two
            left = P[(a * n)[:, None] + lam[b]] * n + rho_t[b]
            # r23: (x, lam[y], rho_t[y]), r12 on the first two, r23 on the last two
            i = (x * n)[:, None] + lam[y]
            right = L[i] * (n * n) + P[R[i] * n + rho_t[y]]
            yield pairs, left != right

    return _first_mismatch(n, mismatches)


def check_solution(sol: Solution) -> SolutionReport:
    """Nondegeneracy, involutivity, and the braid relation, each with the
    first witness of a failure.

    When every lam_x is a permutation and r is involutive, involutivity
    forces rho_y(x) = lam_{lam_x(y)}^{-1}(x), and the braid relation holds
    exactly when the table x*y = lam_x^{-1}(y) satisfies the square law
    (Rump's correspondence, see the module docstring).  The law decides it
    then; the triples themselves are scanned only to name the first failing
    one, or when that precondition fails.
    """
    n = sol.n
    lam = np.array(sol.lam, dtype=np.intp)
    rho = np.array(sol.rho, dtype=np.intp)

    ar = np.arange(n)
    nd_ok, nd_wit = True, None
    lam_rows = (np.sort(lam, axis=1) == ar).all(axis=1)
    rho_rows = (np.sort(rho, axis=1) == ar).all(axis=1)
    if not lam_rows.all():
        nd_ok, nd_wit = False, ("lam", int(np.argmin(lam_rows)))
    elif not rho_rows.all():
        nd_ok, nd_wit = False, ("rho", int(np.argmin(rho_rows)))

    # r packed as in _braid_witness, so that r(r(x, y)) = (x, y) reads P[P] = identity
    P = lam.ravel() * n + rho.T.ravel()
    bad = np.flatnonzero(P[P] != np.arange(n * n))
    if bad.size:
        inv_ok, inv_wit = False, divmod(int(bad[0]), n)
    else:
        inv_ok, inv_wit = True, None

    if lam_rows.all() and inv_ok and _square_law_witness(inverse_rows(lam)) is None:
        br_wit = None
    else:
        br_wit = _braid_witness(lam, rho)
    return SolutionReport(nd_ok, nd_wit, inv_ok, inv_wit, br_wit is None, br_wit)


def to_solution(cs: CycleSet, check: bool = True) -> Solution:
    """The solution attached to a cycle set: lam_x = (x*(-))^{-1}."""
    if check:
        assert_valid(cs)
    t = np.array(cs.table)
    lam = inverse_rows(t)
    # rho[y, x] = t[lam[x, y], x]
    return Solution(lam, t[lam, np.arange(cs.n)[:, None]].T)


def from_solution(sol: Solution) -> CycleSet:
    """Recover the cycle set table x*y = lam_x^{-1}(y), checking that sol comes from it."""
    cs = assert_valid(CycleSet(inverse_rows(sol.lam)), "solution does not come from a cycle set: {}")
    if to_solution(cs, check=False).rho != sol.rho:
        raise InvariantViolation("rho is inconsistent with lam for an involutive solution")
    return cs
