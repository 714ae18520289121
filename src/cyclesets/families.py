"""The known indecomposable cycle sets of size p*p, plus deform/cable moves.

Three families, each built from explicit parameters:

* cyclic: x*y = y+1 on Z_{p*p} (the unique level-one class);
* mpl2(m, A, f, s): points Z_m x A with
  (a,x)*(b,y) = (b+1, y + [b=0]*s + f(b-a)), f(0)=0, f not identically zero
  (level two when A = Z_p);
* irr(p, f, alpha): points Z_p x Z_p with
  (a,x)*(b,y) = (alpha*(b+x), alpha*(y + f(b-a))), f even, non-constant,
  and f(alpha*A) = alpha*f(A) (the irretractable classes).

A deformation composes the table with an automorphism; cabling replaces every
row by the inverse of k times its inverse in the additive group of the row
group's brace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .brace import build_perm_brace
from .cycleset import CycleSet, _is_morphism, assert_valid
from .counting import _integer, _prime, check_fits
from .errors import ConstantPhi, InvariantViolation, NotAnAutomorphism
from .perms import Perm, inverse_rows, is_perm
from .solutions import Solution, check_solution, to_solution


# -- parameter records ------------------------------------------------------


@dataclass(frozen=True)
class CyclicParams:
    p: int


@dataclass(frozen=True)
class Mpl2Params:
    m: int
    a_invariants: tuple[int, ...]
    phi: tuple[tuple[int, ...], ...]
    s: tuple[int, ...]


@dataclass(frozen=True)
class IrrParams:
    p: int
    phi: tuple[int, ...]
    alpha: int


FamilyParams = CyclicParams | Mpl2Params | IrrParams


def mpl2_params(m: int, a_invariants, phi, s) -> Mpl2Params:
    """Normalise scalar phi entries / s into rank-1 tuples, integers reduced
    mod the invariants; ValueError for a float, a bool or a string."""
    inv = tuple(map(_integer, a_invariants))
    if not inv or min(inv) < 1:
        raise InvariantViolation(f"group invariants must be positive, got {list(inv)}")

    def as_elem(v):
        if not hasattr(v, "__len__"):  # a scalar
            if (v := _integer(v)) == 0:
                return (0,) * len(inv)
            if len(inv) != 1:
                raise ValueError("scalar element given for a group of rank > 1")
            return (v % inv[0],)
        if len(v) != len(inv):
            raise ValueError("element has wrong rank")
        return tuple(_integer(x) % d for x, d in zip(v, inv))

    return Mpl2Params(_integer(m), inv, tuple(as_elem(v) for v in phi), as_elem(s))


# -- constructors -----------------------------------------------------------


def cyclic_cycle_set(n: int) -> CycleSet:
    """x*y = y+1 on Z_n."""
    if n < 1:
        raise ValueError("need at least one point")
    return CycleSet(np.broadcast_to((np.arange(n) + 1) % n, (n, n)))


def mpl2_cycle_set(m: int, a_invariants, phi, s) -> CycleSet:
    """(a,x)*(b,y) = (b+1, y + [b=0]*s + f(b-a)) on Z_m x A."""
    params = mpl2_params(m, a_invariants, phi, s)
    m = params.m
    if m < 2:
        raise ValueError("need m >= 2")
    if len(params.phi) != m:
        raise ValueError(f"defect map must list {m} values")
    inv = np.array(params.a_invariants)
    f = np.array(params.phi)  # f[k] = the digits of f(k)
    if f[0].any():
        raise InvariantViolation("defect map must vanish at 0")
    if not f.any():
        raise ConstantPhi("defect map is identically zero")

    # A in mixed radix, last digit fastest: element i has digits elems[i]
    size = int(inv.prod())
    weights = np.append(np.cumprod(inv[:0:-1])[::-1], 1)
    elems = np.arange(size)[:, None] // weights % inv
    r = np.arange(m)
    shift = f[(r[None, :] - r[:, None]) % m]  # shift[a, b] = f(b - a) + [b=0]*s
    shift[:, 0] += params.s
    # (a, x)*(b, y) does not depend on x: table[a, x, b, y] = out[a, b, y]
    out = (r[None, :, None] + 1) % m * size + ((elems + shift[:, :, None]) % inv) @ weights
    return CycleSet(np.broadcast_to(out[:, None], (m, size, m, size)).reshape(m * size, -1))


def irr_cycle_set(p: int, phi, alpha: int = 1) -> CycleSet:
    """(a,x)*(b,y) = (alpha*(b+x), alpha*(y+f(b-a))) on Z_p x Z_p."""
    p = _prime(p)
    f = tuple(_integer(v) % p for v in phi)
    if len(f) != p:
        raise ValueError(f"defect map must list {p} values")
    if all(v == f[0] for v in f):
        raise ConstantPhi("defect map is constant")
    for a in range(p):
        if f[a] != f[(p - a) % p]:
            raise InvariantViolation(f"defect map must be even: f({a}) != f({p - a})")
    alpha = _integer(alpha) % p
    if alpha == 0:
        raise InvariantViolation("alpha must be a unit mod p")
    for a in range(p):
        if f[(alpha * a) % p] != (alpha * f[a]) % p:
            raise InvariantViolation(
                f"defect map is not alpha-equivariant: f({alpha}*{a}) != {alpha}*f({a})"
            )

    r = np.arange(p)
    first = alpha * (r[:, None] + r) % p  # first[x, b]
    second = alpha * (r + np.array(f)[(r - r[:, None]) % p][:, :, None]) % p  # second[a, b, y]
    return CycleSet((first[None, :, :, None] * p + second[:, None]).reshape(p * p, -1))


def _check_table_fits(n: int) -> None:
    """Refuse an n-point family before building its table of 8-byte entries."""
    check_fits(8 * n * n, f"a table on {n} points")


def to_cycle_set(params: FamilyParams) -> CycleSet:
    if isinstance(params, CyclicParams):
        _check_table_fits(params.p * params.p)
        return cyclic_cycle_set(_prime(params.p) ** 2)
    if isinstance(params, Mpl2Params):
        _check_table_fits(params.m * prod(params.a_invariants))
        return mpl2_cycle_set(params.m, params.a_invariants, params.phi, params.s)
    if isinstance(params, IrrParams):
        _check_table_fits(params.p * params.p)
        return irr_cycle_set(params.p, params.phi, params.alpha)
    raise TypeError(f"not family parameters: {params!r}")


# -- JSON form --------------------------------------------------------------


def params_to_dict(params: FamilyParams) -> dict:
    if isinstance(params, CyclicParams):
        return {"family": "cyclic", "p": params.p}
    if isinstance(params, Mpl2Params):
        rank1 = len(params.a_invariants) == 1
        return {
            "family": "mpl2",
            "m": params.m,
            "a_invariants": list(params.a_invariants),
            "phi": [v[0] if rank1 else list(v) for v in params.phi],
            "s": params.s[0] if rank1 else list(params.s),
        }
    if isinstance(params, IrrParams):
        return {"family": "irr", "p": params.p, "phi": list(params.phi), "alpha": params.alpha}
    raise TypeError(f"not family parameters: {params!r}")


def _json_int(value, field: str) -> int:
    """An integer read from a document.  Floats, strings and booleans raise
    TypeError rather than being truncated or read as 0/1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"field {field!r} holds {value!r}, not an integer")


def _json_elem(value, field: str):
    """A scalar or a list of integers, as an int or a tuple."""
    if isinstance(value, list):
        return tuple(_json_int(v, field) for v in value)
    return _json_int(value, field)


def params_from_dict(data: dict) -> FamilyParams:
    family = data.get("family")
    try:
        if family == "cyclic":
            return CyclicParams(_json_int(data["p"], "p"))
        if family == "mpl2":
            return mpl2_params(
                _json_int(data["m"], "m"),
                [_json_int(d, "a_invariants") for d in data["a_invariants"]],
                [_json_elem(v, "phi") for v in data["phi"]],
                _json_elem(data["s"], "s"),
            )
        if family == "irr":
            return IrrParams(
                _json_int(data["p"], "p"),
                tuple(_json_int(v, "phi") for v in data["phi"]),
                _json_int(data.get("alpha", 1), "alpha"),
            )
    except KeyError as exc:
        raise InvariantViolation(f"{family} document lacks the field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise InvariantViolation(f"{family} document has a wrongly typed field: {exc}") from None
    raise ValueError(f"unknown family: {family!r}")


# -- deform and cable -------------------------------------------------------


def is_cycle_set_automorphism(cs: CycleSet, perm: Perm) -> bool:
    if not is_perm(perm) or len(perm) != cs.n:
        return False
    return _is_morphism(cs.table, cs.table, perm)


def deform(cs: CycleSet, perm: Perm) -> CycleSet:
    """Twist the table to x *' y = perm[x*y]; perm must be an automorphism."""
    if not is_cycle_set_automorphism(cs, perm):
        raise NotAnAutomorphism("deforming map must be a cycle set automorphism")
    return assert_valid(CycleSet(np.array(perm)[np.array(cs.table)]), "deformed table is not a cycle set: {}")


def cable(cs: CycleSet, k: int) -> CycleSet:
    """Replace each row x*(-) by the inverse of k·g_x, with g_x = (x*(-))^{-1}
    an additive generator of the row brace."""
    br = build_perm_brace(cs)
    return assert_valid(CycleSet(br.inv_elems[br.add_pow(k, br.gidx)]), "cabled table is not a cycle set: {}")


# -- the co-simple presentation of the irretractable members -----------------


def co_params(p: int, phi, alpha: int) -> tuple[tuple[int, ...], int]:
    """Parameters (f, t) of the co-simple presentation: f(i) = -phi(alpha*i), t = alpha^{-1}."""
    f = tuple((-_integer(phi[(alpha * i) % p])) % p for i in range(p))
    return f, pow(alpha, -1, p)


def co_simple_solution(p: int, f, t: int) -> Solution:
    """lam_{(i,j)}(k,l) = (t*k+j, t*(l - f(t*k+j-i))); rho determined by involutivity.

    Validates the three parameter conditions before building:
    S1 evenness f(i) = f(-i), S2 the scaling law f(t*i) = t*f(i) - (t-1)*f(0),
    S3 f non-constant.
    """
    p = _prime(p)
    f = tuple(_integer(v) % p for v in f)
    if len(f) != p:
        raise ValueError(f"f must list {p} values")
    t = _integer(t) % p
    if t == 0:
        raise InvariantViolation("t must be a unit mod p")
    for i in range(p):
        if f[i] != f[(p - i) % p]:
            raise InvariantViolation(f"condition S1 failed: f({i}) != f(-{i})")
    for i in range(p):
        if f[(t * i) % p] != (t * f[i] - (t - 1) * f[0]) % p:
            raise InvariantViolation(
                f"condition S2 failed: f({t}*{i}) != {t}*f({i}) - {t - 1}*f(0)"
            )
    if all(v == f[0] for v in f):
        raise ConstantPhi("condition S3 failed: f is constant")

    r = np.arange(p)
    first = (t * r + r[:, None]) % p  # first[j, k]
    shift = np.array(f)[(first - r[:, None, None]) % p]  # shift[i, j, k]
    lam = first[..., None] * p + t * (r - shift[..., None]) % p  # lam[i, j, k, l]
    sol = to_solution(CycleSet(inverse_rows(lam.reshape(p * p, -1))), check=False)
    rep = check_solution(sol)
    if not rep.ok:
        raise InvariantViolation(f"co-simple parameters give no solution: {rep}")
    return sol


def mirror_perm(p: int) -> Perm:
    """(i,j) -> (i,-j) on p*p points."""
    return tuple(i * p + (-j) % p for i in range(p) for j in range(p))


def psi_iso_check(p: int, phi, alpha: int) -> bool:
    """The mirror map intertwines an irr member's solution with its co-simple form."""
    sol_a = to_solution(irr_cycle_set(p, phi, alpha))
    f, t = co_params(p, phi, alpha)
    sol_b = co_simple_solution(p, f, t)
    psi = mirror_perm(p)
    # r_b(psi x, psi y) = (psi u, psi v) where r_a(x, y) = (u, v), table by table
    return _is_morphism(sol_a.lam, sol_b.lam, psi) and _is_morphism(sol_a.rho, sol_b.rho, psi)
