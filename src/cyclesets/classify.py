"""Isomorphism testing, automorphism groups, and the size-p*p classifier.

Isomorphisms are bijections f with f(x*y) = f(x)*'f(y).  The engine refines a
colouring of the points (cycle type of the row, then iterated neighbourhood
multisets) and backtracks over colour-respecting assignments, propagating
forced images f(x*y) := f(x)*'f(y) as soon as both arguments are mapped; once
every point is mapped, one array check of the complete map stands in for the
pairs not yet propagated.  It refuses tables whose rows are not permutations,
and checks each map it returns.

Classification of an indecomposable cycle set of size p*p counts its distinct
rows, the points its retraction keeps: 1 for the cyclic class (one row that
generates a transitive group is an n-cycle), p for a level-two member and p*p
for an irretractable one.  The last two have their family's parameters read
straight off their rows, together with coordinates (a, x) for every point:
the fibres of equal rows, or the blocks of the system of p blocks, give a, and
translations along them give x.  ``counting`` scales the parameters to their
least image under the units; the answer stands only once the point map is
checked to carry the input's table onto the member's; no class list is read.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt

import numpy as np

from .cycleset import CycleSet, _is_morphism, assert_valid, is_indecomposable
from .counting import _irr_orbit_minima, _least_image, _mpl2_orbit_minima, _scale, _stabilisers, _twist
from .counting import _integer, _prime, count_formula, count_has_more_digits, is_prime
from .errors import (
    BoundExceeded, ConstantPhi, InvariantViolation, NoMatch, NotIndecomposable, NotSizePSquared, RowsNotBijective
)
from .families import CyclicParams, FamilyParams, IrrParams, Mpl2Params, mpl2_params, to_cycle_set
from .perms import Perm, _seed_systems, cycle_type

# -- the twist action on one defect map ---------------------------------------


def _defect_map(p: int, phi) -> tuple[int, ...]:
    """phi's values mod p; ValueError unless they are integers, one per residue mod p."""
    if len(phi := tuple(map(_integer, phi))) != p:
        raise ValueError(f"a defect map mod {p} has {p} values, not {len(phi)}")
    return tuple(v % p for v in phi)


def canonical_phi(p: int, phi) -> tuple[int, ...]:
    return _least_image(_defect_map(p, phi), p, _twist)[0]


def phi_stabilizer(p: int, phi) -> list[int]:
    return (np.flatnonzero(_stabilisers(np.array([_defect_map(p, phi)]), p, _twist)[0]) + 1).tolist()


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
    rows, key_ids = list(map(tuple, t.reshape(k * n, n).tolist())), {}
    # each distinct row is typed once, in order of first appearance, which keeps the ids
    row_ids = {row: key_ids.setdefault(cycle_type(row), len(key_ids)) for row in dict.fromkeys(rows)}
    c = [row_ids[row] for row in rows]
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


def _search(ta, tb, ca, cb, find_all: bool, arrays):
    """Colour-respecting isomorphisms ta -> tb; first one, or all of them.

    ``dom`` lists the mapped points in the order they were mapped: it is the
    propagation queue, and a branch is undone by unmapping its tail.  Once
    every point is mapped, the pairs not yet propagated can force no new
    image, so one array check of f against ``arrays`` (ta's and tb's tables
    as numpy arrays) settles the branch in their place.  Propagation reaches
    the least closed relation whatever its order, so the result is as if
    every pair had been visited.
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
            if len(dom) == n:
                return _is_morphism(*arrays, f)
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
    found = _search(a.table, b.table, ca, cb, find_all, (t[0], t[-1]))
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

    The level-two classes are the orbit-minimum rows (f(1)..f(p-1), s), whose
    values v, reduced mod p already, are the elements (v,); the irretractable
    ones each orbit-minimum defect map with every twist in its stabiliser.
    Raises BoundExceeded when the class count is larger than ``bound``.
    """
    if count_has_more_digits(_integer(p), len(str(bound)), family):
        raise BoundExceeded(f"more than {bound} classes at p = {p}")
    p = _prime(p)
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
        out.extend(Mpl2Params(p, (p,), ((0,), *zip(row[:-1])), (row[-1],)) for row in _mpl2_orbit_minima(p).tolist())
    if family in ("all", "irr"):
        kept = _irr_orbit_minima(p)
        phis = list(map(tuple, kept.tolist()))
        at, unit = np.nonzero(_stabilisers(kept, p, _twist))
        out.extend(IrrParams(p, phis[i], alpha + 1) for i, alpha in zip(at.tolist(), unit.tolist()))
    return out


# -- classification -------------------------------------------------------------


def _maps_onto(t: np.ndarray, params: Mpl2Params | IrrParams, perm: np.ndarray) -> bool:
    """The certificate: perm carries table t onto the member of params.  False
    also when the constructor refuses the parameters."""
    try:
        member = to_cycle_set(params)
    except (ConstantPhi, InvariantViolation):
        return False
    return _is_morphism(t, np.array(member.table), perm)


def _mpl2_read_off(t: np.ndarray, p: int) -> tuple[Mpl2Params, np.ndarray]:
    """Level-two parameters and the map into their member, read off the rows.

    In the form (a,x)*(b,y) = (b+1, y + [b=0]*s + f(b-a)) every row carries
    fibre b onto fibre b+1 by a translation.  With e = point 0, fibre b is the
    one holding sigma_e^b(e); a point sigma_e^b(g^k(e)) gets coordinate k,
    where g = sigma_e^-1 sigma_u is the first such ratio that moves e and
    translates every fibre.  Row u_a = sigma_e^a(e) then differs from row e on
    fibre a by -f(a), read off u_a itself, and sigma_e^p(e) sits at s + sum f.
    The canonicalising unit scales the coordinates.
    """
    n = p * p
    e = t[0]
    u = int(np.argmax(t[:, 0] != e[0]))
    g = np.argsort(e)[t[u]]
    pts = np.empty((p, p), dtype=np.intp)  # pts[b, k] = sigma_e^b(g^k(e))
    pts[0, 0] = 0
    for k in range(1, p):
        pts[0, k] = g[pts[0, k - 1]]
    for b in range(1, p):
        pts[b] = e[pts[b - 1]]
    pos = np.full(n, -1)
    pos[pts] = np.arange(n).reshape(p, p)
    if (pos < 0).any():
        raise NoMatch("the rows do not translate fibres of a level-two member")
    a, y = np.divmod(pos, p)
    us = pts[:, 0]
    phi = (y[e[us]] - y[t[us, us]]) % p
    s = int(y[e[us[-1]]] - phi.sum()) % p
    if not phi.any():
        raise NoMatch("the defect map read off the rows is zero")
    # shift fibre b by h(b) so that only the fibre 0 -> 1 step carries s
    h = np.concatenate(([0], s + np.cumsum(phi)[:-1]))
    canon, unit = _least_image([*phi.tolist(), s], p, _scale)
    params, perm = mpl2_params(p, (p,), canon[:p], canon[p]), a * p + unit * (y + h[a]) % p
    if not _maps_onto(t, params, perm):
        raise NoMatch("the map read off the rows is not an isomorphism onto the member")
    return params, perm


def _irr_read_off(t: np.ndarray, p: int) -> tuple[IrrParams, np.ndarray]:
    """Irretractable parameters and the map into their member, read off the rows.

    In the form (a,x)*(b,y) = (alpha*(b+x), alpha*(y + f(b-a))) row u acts on
    the blocks {b} x Z_p as b -> alpha*b + alpha*x_u, so the ratio of two rows
    translates the blocks and labels them along its powers.  A point's a is
    its block's label, its x the image of block 0 over alpha, and
    f(a_v - a_0) = x(0*v)/alpha - x_v.  Which block is 0 matters when
    alpha != 1, so each of the p start blocks is tried until the constructor
    accepts f and the map is checked; f is scaled to its canonical orbit
    member, and the coordinates with it.
    """
    n = p * p
    roots = next((r for r in _seed_systems(t, n) if r.count(0) == p), None)
    if roots is None:
        raise NoMatch("the row group has no system of p blocks")
    reps = np.flatnonzero(np.equal(roots, np.arange(n)))  # each block's least point, block i holding reps[i]
    blk = reps.searchsorted(roots)
    act = blk[t[:, reps]]  # act[u, i]: the block row u sends block i to
    ratios = act[:, np.argsort(act[0])]  # A_u A_0^-1
    tau = ratios[(ratios != np.arange(p)).any(axis=1).argmax()]  # the identity if no ratio moves a block
    order = [0]
    for _ in range(p - 1):
        order.append(int(tau[order[-1]]))
    if len(set(order)) != p:
        raise NoMatch("no ratio of rows cycles the p blocks")
    label = np.empty(p, dtype=np.intp)
    label[order] = np.arange(p)
    on_labels = label[act[:, order]]
    alpha = int(on_labels[0, 1] - on_labels[0, 0]) % p
    if (on_labels != (alpha * np.arange(p) + on_labels[:, :1]) % p).any():
        raise NoMatch("the rows do not act on the blocks as b -> alpha*b + t")
    inv = pow(alpha, -1, p)
    if (np.sort(label[blk] * p + inv * on_labels[:, 0] % p) != np.arange(n)).any():
        raise NoMatch("the block coordinates are not a bijection")
    for k in range(p):
        a = (label[blk] - k) % p
        x = inv * (on_labels[:, k] - k) % p
        phi = np.empty(p, dtype=np.intp)
        phi[(a - a[0]) % p] = (inv * x[t[0]] - x) % p
        canon, unit = _least_image(phi, p, _twist)
        w = pow(unit, -1, p)
        params, perm = IrrParams(p, canon, alpha), w * a % p * p + w * x % p
        if _maps_onto(t, params, perm):
            return params, perm
    raise NoMatch("no start block gives a checked map onto a family member")


def classify_size_p2(cs: CycleSet) -> FamilyParams:
    """Match an indecomposable cycle set of size p*p to its family parameters.

    Raises NotSizePSquared / NotIndecomposable for out-of-scope input and
    NoMatch if the count of distinct rows is not 1, p or p*p, or if the
    parameters read off the rows give no member that the input maps onto
    (either would refute the classification).
    """
    n = cs.n
    p = isqrt(n)
    if p * p != n or not is_prime(p):
        raise NotSizePSquared(f"size {n} is not the square of a prime")
    assert_valid(cs)
    if not is_indecomposable(cs):
        raise NotIndecomposable("the row group is not transitive")

    rows = len(set(cs.table))
    if rows == 1:  # one row generating a transitive group is an n-cycle
        return CyclicParams(p)
    if rows not in (p, n):
        raise NoMatch(f"{rows} distinct rows at size p*p, not 1, p or p*p")
    read_off = _mpl2_read_off if rows == p else _irr_read_off
    return read_off(np.array(cs.table, dtype=np.intp), p)[0]
