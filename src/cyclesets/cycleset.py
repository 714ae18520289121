"""Finite cycle sets: the table, its axioms, retraction, quotients.

A cycle set on points {0..n-1} is a binary operation table where each row
``table[x]`` is the permutation y -> x*y, the square law
(x*y)*(x*z) = (y*x)*(y*z) holds for all triples, and x -> x*x is a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InducedTableIllDefined, InvariantViolation, NotTransitive
from .perms import Perm, _blocks, _roots, _seed_systems, is_perm, is_transitive

_Table = tuple[tuple[int, ...], ...]

# Triples evaluated per chunk of the n^3 scans: check_solution at n = 25 then
# holds 0.45 MiB of temporaries.  At twice that, glibc trimmed them off the
# heap top after each call, and the next call faulted ~90 pages back in.
_CHUNK = 1 << 13


def _has_bool(entries) -> bool:
    """True when an entry is a bool, Python's or numpy's: numpy reads a list
    that mixes bools with ints as ints, so such a list is scanned for them."""
    return not {bool, np.bool_}.isdisjoint(map(type, entries))


def _table(rows, what: str) -> _Table:
    """An n x n table of integers in 0..n-1, as a tuple of int tuples.

    ``rows`` is any array-like, Python or numpy.  Raises ValueError for an
    empty table, a ragged or non-square one, entries out of range, and
    entries that are not integers (floats and bools are not truncated).
    """
    try:
        t = np.asarray(rows)
    except ValueError:  # ragged rows
        raise ValueError(f"malformed {what} table") from None
    if t.ndim >= 1 and len(t) == 0:
        raise ValueError(f"a {what} needs at least one point")
    square = t.ndim == 2 and t.shape[0] == t.shape[1]
    if (
        not square
        or not np.issubdtype(t.dtype, np.integer)
        or t.min() < 0
        or t.max() >= len(t)
        or (not isinstance(rows, np.ndarray) and _has_bool(chain.from_iterable(rows)))
    ):
        raise ValueError(f"malformed {what} table")
    return tuple(map(tuple, t.tolist()))


def _points(values, n: int, what: str = "point") -> np.ndarray:
    """``values``, any iterable, as an integer array of indices in 0..n-1.

    One array check: ValueError for entries that are not integers (floats
    are not truncated, bools are refused) or lie outside 0..n-1.
    """
    bools = False
    if not isinstance(values, np.ndarray):
        values = list(values)
        bools = _has_bool(values)
    a = np.asarray(values)
    if bools or a.size and not (np.issubdtype(a.dtype, np.integer) and a.min() >= 0 and a.max() < n):
        raise ValueError(f"{what}s must be integers in 0..{n - 1}")
    return a.astype(np.intp, copy=False)


def _distinct(a) -> np.ndarray:
    """np.unique(a): the sorted distinct values.  A plain np.unique call imports
    numpy.ma under numpy 2.4, half a megabyte or more; asking for the indices too
    does not."""
    return np.unique(a, return_index=True)[0]


@dataclass(frozen=True)
class CycleSet:
    """Operation table; rows are x*(-).  Shape-checked, axioms are not."""

    table: _Table

    def __post_init__(self):
        object.__setattr__(self, "table", _table(self.table, "cycle set"))

    @property
    def n(self) -> int:
        return len(self.table)

    def sigma(self, x: int) -> Perm:
        """The left translation y -> x*y as a permutation tuple."""
        return self.table[x]


@dataclass(frozen=True)
class ValidityReport:
    square_law_ok: bool
    square_law_witness: tuple[int, int, int] | None
    rows_bijective_ok: bool
    rows_bijective_witness: int | None
    diagonal_bijective_ok: bool
    diagonal_bijective_witness: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        return self.square_law_ok and self.rows_bijective_ok and self.diagonal_bijective_ok


def _first_mismatch(n: int, mismatches, halved: bool = False) -> tuple[int, int, int] | None:
    """Lexicographically first (x, y, z) at which an n^3 check fails.

    The flat pair indices x*n + y are cut into consecutive chunks of about
    ``_CHUNK`` triples (twice that if ``halved``: ``mismatches`` checks half
    the pairs), each covering every z.  ``mismatches`` is a generator
    function: given the iterator of chunks, it yields for each one the pairs
    it checked (a subset of the chunk, in order) and a boolean array of shape
    (len(pairs), n) marking the failing z.  Being a generator, it keeps one
    chunk's arrays alive while the next is computed, so the allocator does
    not return their memory and fault it in again on every chunk.
    """
    step = max(1, (_CHUNK << halved) // n)
    chunks = (np.arange(s, min(s + step, n * n)) for s in range(0, n * n, step))
    for pairs, bad in mismatches(chunks):
        hit = np.flatnonzero(bad)
        if hit.size:
            i, z = divmod(int(hit[0]), n)
            x, y = divmod(int(pairs[i]), n)
            return x, y, z
    return None


def _square_law_witness(t: np.ndarray) -> tuple[int, int, int] | None:
    """The first (x, y, z) at which (x*y)*(x*z) != (y*x)*(y*z) in the n x n
    intp table ``t``, whose rows need not be permutations; None if the law holds.

    Swapping x and y swaps the two sides, so the first failing triple has
    x < y and only those pairs are evaluated.  A product a*b is the gather
    flat[a*n + b]; t[x] is the row.
    """
    n = len(t)
    flat = t.ravel()

    def mismatches(chunks):
        for pairs in chunks:
            x, y = np.divmod(pairs, n)
            keep = x < y
            pairs, x, y = pairs[keep], x[keep], y[keep]
            lhs = flat[(flat[pairs] * n)[:, None] + t[x]]
            rhs = flat[(flat[y * n + x] * n)[:, None] + t[y]]
            yield pairs, lhs != rhs

    return _first_mismatch(n, mismatches, halved=True)


def check_cycle_set(cs: CycleSet) -> ValidityReport:
    """Check all three axioms, reporting a first witness for each failure."""
    n = cs.n
    t = np.array(cs.table, dtype=np.intp)

    row_ok = (np.sort(t, axis=1) == np.arange(n)).all(axis=1)
    c2_wit = None if row_ok.all() else int(np.argmin(row_ok))

    # the first point whose diagonal entry repeats an earlier one's, and that one
    _, first, which = np.unique(np.diagonal(t), return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[which] != np.arange(n))
    c3_wit = (int(first[which[repeats[0]]]), int(repeats[0])) if repeats.size else None

    c1_wit = _square_law_witness(t)
    return ValidityReport(c1_wit is None, c1_wit, c2_wit is None, c2_wit, c3_wit is None, c3_wit)


def _is_morphism(ta, tb, f) -> bool:
    """f(x*y) = f(x)*'f(y) for all x, y, with tables ta and tb."""
    f = np.asarray(f)
    return bool((f[np.asarray(ta)] == np.asarray(tb)[f[:, None], f]).all())


def assert_valid(cs: CycleSet, what: str = "not a cycle set: {}") -> CycleSet:
    """cs itself; InvariantViolation(what.format(report)) when an axiom fails."""
    rep = check_cycle_set(cs)
    if not rep.ok:
        raise InvariantViolation(what.format(rep))
    return cs


def sigma_gens(cs: CycleSet) -> list[Perm]:
    """The row permutations x -> sigma_x, duplicates preserved."""
    return list(cs.table)


def is_indecomposable(cs: CycleSet) -> bool:
    """True when the row permutations act transitively on the points."""
    return is_transitive(cs.table, cs.n)


def relabel(cs: CycleSet, perm: Perm) -> CycleSet:
    """Transport the table along x -> perm[x]."""
    if not is_perm(perm) or len(perm) != cs.n:
        raise ValueError("relabel needs a permutation of the points")
    perm = np.array(perm)
    inv = np.argsort(perm)
    return CycleSet(perm[np.array(cs.table)[np.ix_(inv, inv)]])


def retraction(cs: CycleSet) -> tuple[CycleSet, tuple[int, ...]]:
    """Identify points with equal rows; return the induced cycle set + projection.

    proj[x] is the class index of point x.  Raises InducedTableIllDefined if
    the class of x*y fails to depend only on the classes of x and y (cannot
    happen for a valid cycle set).
    """
    classes: dict[tuple[int, ...], int] = {}
    return _induced_table(cs, [classes.setdefault(row, len(classes)) for row in cs.table])


def multipermutation_level(cs: CycleSet) -> int | None:
    """Retraction steps until one point; None when retraction stalls."""
    cur = cs
    level = 0
    while cur.n > 1:
        nxt, _ = retraction(cur)
        if nxt.n == cur.n:
            return None
        cur = nxt
        level += 1
    return level


def is_irretractable(cs: CycleSet) -> bool:
    """True when all rows are distinct (and there is more than one point)."""
    return cs.n > 1 and len(set(cs.table)) == cs.n


def sub_cycle_set(cs: CycleSet, subset) -> tuple[int, ...]:
    """Smallest subset closed under * containing ``subset``, as sorted points."""
    closed = set(_points(subset, cs.n).tolist())
    frontier = list(closed)
    while frontier:
        x = frontier.pop()
        for y in list(closed):
            for z in (cs.table[x][y], cs.table[y][x]):
                if z not in closed:
                    closed.add(z)
                    frontier.append(z)
    return tuple(sorted(closed))


def restrict(cs: CycleSet, points) -> CycleSet:
    """The induced table on a *-closed subset, reindexed to 0..k-1."""
    points = _points(points, cs.n)
    if _distinct(points).size != points.size:
        raise ValueError("subset repeats a point")
    products = np.array(cs.table)[np.ix_(points, points)]
    index = np.full(cs.n, -1)
    index[points] = np.arange(len(points))
    table = index[products]
    escapes = products[table < 0]
    if escapes.size:
        raise ValueError(f"subset is not closed: point {escapes[0]} escapes")
    return CycleSet(table)


def _induced_table(cs: CycleSet, cls) -> tuple[CycleSet, tuple[int, ...]]:
    """The table induced on the blocks, and each point's block index.

    ``cls[x]`` is the block of point x, blocks numbered 0..k-1; a block's
    representative is its least point.  Raises InducedTableIllDefined at the
    first pair (x, y) whose product's block is not determined by the blocks
    of x and y.
    """
    cls = np.asarray(cls)
    t = np.array(cs.table)
    reps = np.unique(cls, return_index=True)[1]
    induced = cls[t[np.ix_(reps, reps)]]
    bad = np.flatnonzero(cls[t] != induced[np.ix_(cls, cls)])
    if bad.size:
        x, y = divmod(int(bad[0]), cs.n)
        raise InducedTableIllDefined((int(cls[x]), int(cls[y])), (x, y))
    return CycleSet(induced), tuple(cls.tolist())


def _principal_congruences(cs: CycleSet):
    """The proper principal congruences Cg(0, s) of an indecomposable cycle set:
    the seed systems of its rows x*(-) and columns (-)*x, which they respect."""
    if not is_indecomposable(cs):
        raise NotTransitive(f"group is not transitive on {cs.n} points")
    t = np.array(cs.table, dtype=np.intp)
    return _seed_systems(t, cs.n, t.T)


def quotients(cs: CycleSet) -> list[tuple[tuple[tuple[int, ...], ...], CycleSet]]:
    """All proper nontrivial quotients, those by congruences: (partition,
    induced cycle set) pairs, ordered by partition.  Requires an
    indecomposable input, whose congruences are block systems of the
    transitive row group: each is the join of the principal ones Cg(0, s)
    over the s in its block of 0, so those, closed under joins, are all."""
    n = cs.n
    systems = set(_principal_congruences(cs))
    frontier = list(systems)
    while frontier:
        a = frontier.pop()
        for b in list(systems):
            j = _roots((), n, chain(enumerate(a), enumerate(b)))
            if j is not None and (j := tuple(j)) not in systems:
                systems.add(j)
                frontier.append(j)
    found = [(_blocks(r), _induced_table(cs, np.unique(r, return_inverse=True)[1])[0]) for r in systems]
    return [(part, assert_valid(q, "quotient by a congruence is not a cycle set")) for part, q in sorted(found)]


def is_simple(cs: CycleSet) -> bool:
    """No proper nontrivial quotient (input must be indecomposable): as every
    congruence joins principal ones (see ``quotients``), no proper Cg(0, s)."""
    return cs.n > 1 and next(_principal_congruences(cs), None) is None
