"""Finite cycle sets: the table, its axioms, retraction, quotients.

A cycle set on points {0..n-1} is a binary operation table where each row
``table[x]`` is the permutation y -> x*y, the square law
(x*y)*(x*z) = (y*x)*(y*z) holds for all triples, and x -> x*x is a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InducedTableIllDefined, InvariantViolation
from .perms import Perm, _UnionFind, inverse, is_perm, is_transitive

_Table = tuple[tuple[int, ...], ...]

# Triples per chunk of the n^3 scans in check_cycle_set and check_solution.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class CycleSet:
    """Operation table; rows are x*(-).  Shape-checked, axioms are not."""

    table: _Table

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.table)
        n = len(rows)
        if n == 0:
            raise ValueError("a cycle set needs at least one point")
        for row in rows:
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise ValueError("malformed cycle set table")
        object.__setattr__(self, "table", rows)

    @property
    def n(self) -> int:
        return len(self.table)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def sigma(self, x: int) -> Perm:
        """The left translation y -> x*y as a permutation tuple."""
        return self.table[x]

    def sigma_perms(self) -> tuple[Perm, ...]:
        return self.table


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


def _first_mismatch(n: int, mismatches) -> tuple[int, int, int] | None:
    """Lexicographically first (x, y, z) at which an n^3 check fails.

    The flat pair indices x*n + y are cut into consecutive chunks of about
    ``_CHUNK`` triples, each chunk covering every z.  ``mismatches`` is a
    generator function: given the iterator of chunks, it yields for each one
    the pairs it checked (a subset of the chunk, in order) and a boolean
    array of shape (len(pairs), n) marking the failing z.  Being a generator,
    it keeps one chunk's arrays alive while the next is computed, so the
    allocator does not hand the chunk's memory back to the system and fault
    it in again on every chunk.
    """
    step = max(1, _CHUNK // n)
    chunks = (np.arange(s, min(s + step, n * n)) for s in range(0, n * n, step))
    for pairs, bad in mismatches(chunks):
        hit = np.flatnonzero(bad)
        if hit.size:
            i, z = divmod(int(hit[0]), n)
            x, y = divmod(int(pairs[i]), n)
            return x, y, z
    return None


def check_cycle_set(cs: CycleSet) -> ValidityReport:
    """Check all three axioms, reporting a first witness for each failure."""
    n = cs.n
    t = np.array(cs.table, dtype=np.intp)

    rows_sorted = np.sort(t, axis=1)
    row_ok = (rows_sorted == np.arange(n)).all(axis=1)
    if row_ok.all():
        c2_ok, c2_wit = True, None
    else:
        c2_ok, c2_wit = False, int(np.argmin(row_ok))

    diag = t[np.arange(n), np.arange(n)]
    c3_ok, c3_wit = True, None
    seen: dict[int, int] = {}
    for x in range(n):
        v = int(diag[x])
        if v in seen:
            c3_ok, c3_wit = False, (seen[v], x)
            break
        seen[v] = x

    # square law (x*y)*(x*z) == (y*x)*(y*z).  Swapping x and y swaps the two
    # sides, so the first failing triple has x < y and only those pairs are
    # evaluated.  A product a*b is the gather flat[a*n + b]; t[x] is the row.
    flat = t.ravel()

    def mismatches(chunks):
        for pairs in chunks:
            x, y = np.divmod(pairs, n)
            keep = x < y
            pairs, x, y = pairs[keep], x[keep], y[keep]
            lhs = flat[(flat[pairs] * n)[:, None] + t[x]]
            rhs = flat[(flat[y * n + x] * n)[:, None] + t[y]]
            yield pairs, lhs != rhs

    c1_wit = _first_mismatch(n, mismatches)
    return ValidityReport(c1_wit is None, c1_wit, c2_ok, c2_wit, c3_ok, c3_wit)


def _is_morphism(ta, tb, f) -> bool:
    """f(x*y) = f(x)*'f(y) for all x, y, with tables ta and tb."""
    n = len(ta)
    return all(f[ta[x][y]] == tb[f[x]][f[y]] for x in range(n) for y in range(n))


def assert_valid(cs: CycleSet) -> CycleSet:
    rep = check_cycle_set(cs)
    if not rep.ok:
        raise InvariantViolation(f"not a cycle set: {rep}")
    return cs


def sigma_gens(cs: CycleSet) -> list[Perm]:
    """The row permutations x -> sigma_x, duplicates preserved."""
    return list(cs.sigma_perms())


def is_indecomposable(cs: CycleSet) -> bool:
    """True when the row permutations act transitively on the points."""
    return is_transitive(cs.sigma_perms(), cs.n)


def relabel(cs: CycleSet, perm: Perm) -> CycleSet:
    """Transport the table along x -> perm[x]."""
    if not is_perm(perm) or len(perm) != cs.n:
        raise ValueError("relabel needs a permutation of the points")
    inv = inverse(perm)
    t = cs.table
    return CycleSet(
        tuple(tuple(perm[t[inv[x]][inv[y]]] for y in range(cs.n)) for x in range(cs.n))
    )


def retraction(cs: CycleSet) -> tuple[CycleSet, tuple[int, ...]]:
    """Identify points with equal rows; return the induced cycle set + projection.

    proj[x] is the class index of point x.  Raises InducedTableIllDefined if
    the class of x*y fails to depend only on the classes of x and y (cannot
    happen for a valid cycle set).
    """
    classes: dict[tuple[int, ...], list[int]] = {}
    for x, row in enumerate(cs.table):
        classes.setdefault(row, []).append(x)
    return _induced_table(cs, list(classes.values()))


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
    closed = set(int(x) for x in subset)
    frontier = list(closed)
    while frontier:
        x = frontier.pop()
        for y in list(closed):
            for z in (cs.table[x][y], cs.table[y][x], cs.table[x][x]):
                if z not in closed:
                    closed.add(z)
                    frontier.append(z)
    return tuple(sorted(closed))


def restrict(cs: CycleSet, points) -> CycleSet:
    """The induced table on a *-closed subset, reindexed to 0..k-1."""
    points = list(points)
    index = {p: i for i, p in enumerate(points)}
    try:
        table = tuple(
            tuple(index[cs.table[x][y]] for y in points) for x in points
        )
    except KeyError as exc:
        raise ValueError(f"subset is not closed: point {exc} escapes") from exc
    return CycleSet(table)


def _join_partitions(a, b, n: int):
    uf = _UnionFind(n)
    for part in (a, b):
        for block in part:
            for x in block[1:]:
                uf.union(block[0], x)
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(uf.find(x), []).append(x)
    return tuple(sorted(tuple(sorted(v)) for v in blocks.values()))


def _induced_table(cs: CycleSet, partition) -> tuple[CycleSet, tuple[int, ...]]:
    """The table induced on the blocks, and each point's block index.

    Block representatives are the first members.  Raises
    InducedTableIllDefined at the first pair (x, y) whose product's block is
    not determined by the blocks of x and y.
    """
    n = cs.n
    cls = [0] * n
    for i, block in enumerate(partition):
        for x in block:
            cls[x] = i
    induced = [[cls[cs.table[block[0]][other[0]]] for other in partition] for block in partition]
    for x in range(n):
        for y in range(n):
            if cls[cs.table[x][y]] != induced[cls[x]][cls[y]]:
                raise InducedTableIllDefined((cls[x], cls[y]), (x, y))
    return CycleSet(tuple(tuple(r) for r in induced)), tuple(cls)


def quotients(cs: CycleSet) -> list[tuple[tuple[tuple[int, ...], ...], CycleSet]]:
    """All proper nontrivial quotients: (partition, induced cycle set) pairs.

    Candidate partitions are the block systems of the row group, closed under
    joins; a partition yields a quotient exactly when the induced table is
    well defined.  Requires an indecomposable input.
    """
    from .perms import block_systems

    n = cs.n
    if n <= 1:
        return []
    gens = cs.sigma_perms()
    systems = set(block_systems(gens, n))
    frontier = list(systems)
    while frontier:
        s = frontier.pop()
        for t in list(systems):
            j = _join_partitions(s, t, n)
            if 1 < len(j) < n and j not in systems:
                systems.add(j)
                frontier.append(j)
    out = []
    for system in sorted(systems):
        try:
            induced, _ = _induced_table(cs, system)
        except InducedTableIllDefined:
            continue
        if not check_cycle_set(induced).ok:
            raise InvariantViolation("well-defined quotient is not a cycle set")
        out.append((system, induced))
    return out


def is_simple(cs: CycleSet) -> bool:
    """No proper nontrivial quotient (input must be indecomposable)."""
    if cs.n <= 1:
        return False
    return not quotients(cs)
