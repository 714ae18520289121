"""Isomorphism testing, automorphism groups, and the size-p*p classifier.

Isomorphisms are bijections f with f(x*y) = f(x)*'f(y).  The engine refines a
colouring of the points (cycle type of the row, then iterated neighbourhood
multisets) and backtracks over colour-respecting assignments, propagating
forced images f(x*y) := f(x)*'f(y) as soon as both arguments are mapped.  It
refuses tables whose rows are not permutations, and checks each map it returns.

Classification of an indecomposable cycle set of size p*p proceeds by
retraction level: level 1 is the cyclic class, whose row is an n-cycle.  Level 2
and irretractable members run one candidate loop over the canonical parameters
of their family, (f, s) pairs or (defect map, twist alpha) pairs: a candidate
whose sorted row cycle types differ from the input's is skipped, and the first
one the isomorphism engine maps the input onto is the answer.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt

import numpy as np

from .cycleset import (
    CycleSet,
    _is_morphism,
    assert_valid,
    is_indecomposable,
    multipermutation_level,
)
from .counting import (
    _irr_orbit_minima, _mpl2_orbit_minima, count_formula, count_has_more_digits, is_prime
)
from .errors import (
    BoundExceeded, InvariantViolation, NoMatch, NotIndecomposable, NotSizePSquared, RowsNotBijective
)
from .families import (
    CyclicParams,
    FamilyParams,
    IrrParams,
    Mpl2Params,
    mpl2_params,
    to_cycle_set,
)
from .perms import Perm, cycle_type

# -- defect-map scaling action ------------------------------------------------


def phi_act(p: int, alpha: int, phi) -> tuple[int, ...]:
    """(alpha . f)(A) = alpha^{-1} * f(alpha*A)."""
    inv = pow(alpha, -1, p)
    return tuple((inv * phi[(alpha * a) % p]) % p for a in range(p))


def phi_orbit(p: int, phi) -> list[tuple[int, ...]]:
    return sorted({phi_act(p, alpha, phi) for alpha in range(1, p)})


def canonical_phi(p: int, phi) -> tuple[int, ...]:
    return phi_orbit(p, phi)[0]


def phi_stabilizer(p: int, phi) -> list[int]:
    phi = tuple(v % p for v in phi)
    return [alpha for alpha in range(1, p) if phi_act(p, alpha, phi) == phi]


def canonical_mpl2_pair(p: int, phi, s: int) -> tuple[tuple[int, ...], int]:
    """Lex-least (alpha*f, alpha*s) over units alpha; f indexed over Z_p."""
    phi = tuple(v % p for v in phi)
    s = s % p
    return min(
        (tuple((alpha * v) % p for v in phi), (alpha * s) % p) for alpha in range(1, p)
    )


# -- colour refinement ---------------------------------------------------------


def _refine(tables):
    """Joint colour refinement of equal-sized tables, colours comparable across them.

    ``tables`` is any array-like of k tables of n rows.  Colours start as
    first-appearance ids of the rows' cycle types.  Each round ranks the keys
    (c[x], sorted triples (c[y], c[x*y], c[y*x])) over all points, until no
    table gains a colour.  A key is held as the sorted integers
    ((c[x]*N + c[y])*N + c[x*y])*N + c[y*x], N = k*n, in big-endian bytes, which
    sort as the tuples do; N**4 fits an int64 for any table that fits in memory.
    Raises RowsNotBijective for a row that is not a permutation: its cycle type
    would not be a relabelling invariant.
    """
    t = np.asarray(tables, dtype=np.intp)
    k, n = t.shape[:2]
    if not (np.sort(t, axis=2) == np.arange(n)).all():
        raise RowsNotBijective("iso and aut need a table whose rows are permutations")
    key_ids: dict = {}
    c = [key_ids.setdefault(cycle_type(row), len(key_ids)) for row in t.reshape(k * n, n).tolist()]
    counts = [len(set(c[s : s + n])) for s in range(0, k * n, n)]
    ids = np.arange(k * n).reshape(k, n)  # the points, numbered table after table
    idx = np.empty((4, k, n, n), dtype=np.intp)  # idx[:, x, y] = (x, y, x*y, y*x)
    idx[0], idx[1], idx[2] = ids[:, :, None], ids[:, None, :], t + ids[:, :1, None]
    idx[3] = idx[2].transpose(0, 2, 1)
    w, key = (k * n) ** np.arange(3, -1, -1), np.dtype((np.void, 8 * n))
    while True:
        v = (w @ np.array(c)[idx].reshape(4, -1)).reshape(k * n, n)
        v.sort(axis=1)
        raw = v.byteswap().view(key).ravel().tolist()
        rank = {r: i for i, r in enumerate(sorted(set(raw)))}
        c = [rank[r] for r in raw]
        new = [len(set(raw[s : s + n])) for s in range(0, k * n, n)]
        if new == counts:
            return [c[s : s + n] for s in range(0, k * n, n)]
        counts = new


def _search(ta, tb, ca, cb, find_all: bool):
    """Colour-respecting isomorphisms ta -> tb; first one, or all of them.

    ``dom`` lists the mapped points in the order they were mapped: it is the
    propagation queue, and a branch is undone by unmapping its tail.
    """
    n = len(ta)
    by_colour: dict[int, list[int]] = {}
    for v in range(n):
        by_colour.setdefault(cb[v], []).append(v)
    f = [-1] * n
    g = [-1] * n
    dom: list[int] = []
    found: list[Perm] = []

    def propagate(i: int) -> bool:
        """Map what dom[i:] forces, pairing each point with those mapped before it."""
        while i < len(dom):
            u = dom[i]
            i += 1
            for w in dom[:i]:
                for x, y in ((u, w), (w, u)):
                    pxy = ta[x][y]
                    qxy = tb[f[x]][f[y]]
                    if f[pxy] == -1:
                        if g[qxy] != -1 or ca[pxy] != cb[qxy]:
                            return False
                        f[pxy] = qxy
                        g[qxy] = pxy
                        dom.append(pxy)
                    elif f[pxy] != qxy:
                        return False
        return True

    def extend() -> bool:
        if len(dom) == n:
            found.append(tuple(f))
            return not find_all
        pivot, cands = -1, None
        for x in range(n):
            if f[x] != -1:
                continue
            cs = [v for v in by_colour.get(ca[x], ()) if g[v] == -1]
            if cands is None or len(cs) < len(cands):
                pivot, cands = x, cs
                if not cs:
                    return False
        k = len(dom)
        for v in cands:
            f[pivot] = v
            g[v] = pivot
            dom.append(pivot)
            done = propagate(k) and extend()
            for x in dom[k:]:
                g[f[x]] = -1
                f[x] = -1
            del dom[k:]
            if done:
                return True
        return False

    extend()
    return found


def _isomorphisms(a: CycleSet, b: CycleSet, find_all: bool) -> list[Perm]:
    """The search's isomorphisms a -> b, each checked against the tables."""
    n, tables = a.n, (a.table,) if a is b else (a.table, b.table)
    if b.n != n:
        return []
    t = np.fromiter(chain.from_iterable(chain.from_iterable(tables)), np.intp, len(tables) * n * n).reshape(-1, n, n)
    colours = _refine(t)
    ca, cb = colours[0], colours[-1]
    if sorted(ca) != sorted(cb):
        return []
    found = _search(a.table, b.table, ca, cb, find_all)
    for f in found:
        if not _is_morphism(t[0], t[-1], f):
            raise InvariantViolation(f"the search returned a map that is not an isomorphism: {f}")
    return found


def iso_cycle_sets(a: CycleSet, b: CycleSet) -> Perm | None:
    """A point bijection carrying a's table to b's, or None."""
    return next(iter(_isomorphisms(a, b, find_all=False)), None)


def automorphisms(cs: CycleSet) -> list[Perm]:
    """All table automorphisms, in lexicographic order."""
    return sorted(_isomorphisms(cs, cs, find_all=True))


# -- enumeration of class representatives --------------------------------------


def enumerate_classes(p: int, family: str = "all", bound: int = 1_000_000) -> list[FamilyParams]:
    """Canonical parameters of every class of the requested family at size p*p.

    Raises BoundExceeded when the class count is larger than ``bound``.
    """
    if count_has_more_digits(p, len(str(bound)), family):
        raise BoundExceeded(f"more than {bound} classes at p = {p}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if family not in ("all", "cyclic", "mpl2", "irr"):
        raise ValueError(f"unknown family: {family!r}")
    field = {"all": "total", "mpl2": "n_mpl2", "irr": "n_irr"}.get(family)
    # the one cyclic class needs no count_formula, which is slow at a huge p
    expect = getattr(count_formula(p), field) if field else 1
    if expect > bound:
        raise BoundExceeded(f"more than {bound} classes at p = {p}")
    out: list[FamilyParams] = []
    if family in ("all", "cyclic"):
        out.append(CyclicParams(p))
    if family in ("all", "mpl2"):
        out.extend(_enumerate_mpl2(p))
    if family in ("all", "irr"):
        out.extend(_enumerate_irr(p))
    return out


def _enumerate_mpl2(p: int) -> list[Mpl2Params]:
    rows, least = _mpl2_orbit_minima(p)
    return [
        mpl2_params(p, (p,), (0, *row[: p - 1]), row[p - 1])
        for row in rows[least].tolist()
    ]


def _enumerate_irr(p: int) -> list[IrrParams]:
    full, least, _ = _irr_orbit_minima(p)
    out = []
    for phi in map(tuple, full[least].tolist()):
        out.extend(IrrParams(p, phi, alpha) for alpha in phi_stabilizer(p, phi))
    return out


# -- classification -------------------------------------------------------------


def classify_size_p2(cs: CycleSet) -> FamilyParams:
    """Match an indecomposable cycle set of size p*p to its family parameters.

    Raises NotSizePSquared / NotIndecomposable for out-of-scope input and
    NoMatch if no class matches (which would refute the classification).
    """
    n = cs.n
    p = isqrt(n)
    if p * p != n or not is_prime(p):
        raise NotSizePSquared(f"size {n} is not the square of a prime")
    assert_valid(cs)
    if not is_indecomposable(cs):
        raise NotIndecomposable("the row group is not transitive")

    level = multipermutation_level(cs)
    if level == 1:
        if cycle_type(cs.table[0]) != (n,):
            raise NoMatch("level-one member whose row is not an n-cycle")
        return CyclicParams(p)
    if level not in (2, None):
        raise NoMatch(f"unexpected retraction level {level} at size p*p")

    row_types = sorted(cycle_type(row) for row in cs.table)
    for params in _enumerate_mpl2(p) if level == 2 else _enumerate_irr(p):
        member = to_cycle_set(params)
        if sorted(cycle_type(row) for row in member.table) != row_types:
            continue
        if iso_cycle_sets(cs, member) is not None:
            return params
    raise NoMatch("no family member is isomorphic to the input")
