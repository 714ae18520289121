"""Brute-force ground truth at small sizes.

Enumerates every cycle set table by branching on its least unplaced row (each
row a permutation), closing the square law over the placed rows after each
choice (``_close``: it checks the instances whose four rows are placed and
places every row they decide), pruning on the diagonal bijection, then dedupes
by the lexicographically least relabeling.  Row 0 is one fixed permutation
per pair of cycle type and length of the cycle through 0 (``_row0_reps``),
a symmetry break that loses no class.
Independent of the family constructors and of the refined isomorphism engine,
so it can audit both.

``canonical_form`` reads the least table's row 0 off the rows' cycle types
(``_laid``) and filters the other rows over only the labelings that reach it,
each a base map times a centraliser element (``_labelings``), in numpy blocks;
``brute_iso`` and ``brute_aut`` grow partial maps point by point in
lexicographic order (``_morphisms``).  So their outputs are the least table,
the first isomorphism and the automorphisms in order, as a loop over
``itertools.permutations`` would give them.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .cycleset import CycleSet, is_indecomposable, is_irretractable
from .errors import SizeTooLarge
from .perms import Perm

_BRUTE_LIMIT = 9
_SLICE = 720  # most relabelings canonical_form filters at once
_CAP = 1024  # most partial maps _morphisms extends at once; 4096 made relabelled n = 8 pairs 60% slower


@dataclass(frozen=True)
class SearchOptions:
    """The oracle's size, filters and budgets.  jobs > 1 workers share max_nodes:
    each takes max_nodes // jobs, the first max_nodes % jobs one more."""
    n: int
    indecomposable_only: bool = False
    irretractable_only: bool = False
    max_nodes: int | None = None
    time_budget: float | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("need max_nodes >= 0")
        if self.time_budget is not None and not self.time_budget >= 0:  # NaN too
            raise ValueError("need a time budget of 0 seconds or more")


@dataclass(frozen=True)
class OracleResult:
    classes: tuple[CycleSet, ...]
    complete: bool
    nodes: int
    elapsed: float


def _lay(lengths) -> tuple[int, ...]:
    """One cycle of each length in turn on consecutive points: the cycle on
    a..a+L-1 sends a -> a+1 -> ... -> a+L-1 -> a."""
    perm: list[int] = []
    for length in lengths:
        perm += [len(perm) + (i + 1) % length for i in range(length)]
    return tuple(perm)


@functools.lru_cache(maxsize=1 << 14)  # census tables share most of their rows
def _laid(s: tuple[int, ...], x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(the cycle lengths of s, the one through x first and the others
    shortest first; the bijection B that lays them out from x: B(x) = 0 and
    B s B^-1 = _lay(lengths), the least conjugate of s that sends x to 0).

    A shorter cycle through 0 gives a less _lay, then a shorter next cycle,
    so lengths compare like their _lay.
    """
    seen, cycles = set(), []
    for c in (x, *range(len(s))):
        cycle = []
        while c not in seen:
            seen.add(c)
            cycle.append(c)
            c = s[c]
        if cycle:
            cycles.append(cycle)
    cycles[1:] = sorted(cycles[1:], key=len)
    order = list(itertools.chain(*cycles))
    return tuple(map(len, cycles)), tuple(sorted(range(len(s)), key=order.__getitem__))


@functools.cache
def _centraliser(lengths: tuple[int, ...]) -> np.ndarray:
    """The permutations that fix 0 and commute with r = _lay(lengths), one per
    intp column: the automorphisms that fix 0 of the table whose every row is
    r, since relabeling it by P makes every row P r P^-1.  They come first in
    lexicographic order; 8! = 40,320 of them at most for n <= 9.
    """
    t = np.array([_lay(lengths)] * sum(lengths))
    maps = np.concatenate(list(itertools.takewhile(lambda hits: hits[0, 0] == 0, _morphisms(t, t))))
    cent = maps[maps[:, 0] == 0].T.astype(np.intp)
    cent.flags.writeable = False  # shared by every call
    return cent


def _labelings(lengths: tuple[int, ...], bases):
    """Every bijection C B, for B in ``bases`` and C a column of
    _centraliser(lengths); so, with each B from _laid(s_x, x), the bijections
    P with P(x) = 0 and P s_x P^-1 = _lay(lengths).  They come as (n, w) intp
    blocks of one per column, from slices of about _SLICE / len(bases)
    columns C, so a block holds about _SLICE bijections.
    """
    cent = _centraliser(lengths)
    cols = np.array(bases, dtype=np.intp).T  # column i is the i-th B
    step = max(1, _SLICE // len(bases))
    for lo in range(0, cent.shape[1], step):
        yield cent[:, lo : lo + step][cols].reshape(len(cols), -1)


def _morphisms(ta: np.ndarray, tb: np.ndarray):
    """The bijections P with P[ta[x, y]] == tb[P[x], P[y]] for every x, y, in
    lexicographic order, as nonempty (k, n) int8 arrays of one row per P.

    A map on 0..d-1 is extended by each unused image of d in increasing order,
    then checked on the pairs that d decides (max(x, y, ta[x, y]) = d), at most
    _CAP // (n - d) maps at a time, depth first, so memory stays O(_CAP * n).
    """
    n = len(ta)
    zxy = np.stack((ta.ravel(), *np.indices((n, n)).reshape(2, -1)))  # z = ta[x, y], x, y
    depth = zxy.max(axis=0)
    ends = np.searchsorted(np.sort(depth), range(n + 1))
    zxy = zxy[:, np.argsort(depth, kind="stable")]
    cols = [zxy[:, a:b].ravel() for a, b in zip(ends, ends[1:])]  # depth d's z, then x, then y
    tb = tb.astype(np.int8)

    def grow(maps):
        d = maps.shape[1]
        if d == n:
            if len(maps):
                yield maps
            return
        c, m = cols[d], len(cols[d]) // 3
        step = max(1, _CAP // (n - d))
        for start in range(0, len(maps), step):
            part = maps[start : start + step]
            free = np.ones((len(part), n), dtype=bool)
            free[np.arange(len(part))[:, None], part] = False
            ext = np.empty((len(part) * (n - d), d + 1), dtype=np.int8)
            ext[:, :d] = np.repeat(part, n - d, axis=0)
            ext[:, d] = np.nonzero(free)[1]  # row-major: lexicographic order
            if m:
                v = ext[:, c]
                ext = ext[(v[:, :m] == tb[v[:, m : 2 * m], v[:, 2 * m :]]).all(axis=1)]
            yield from grow(ext)

    return grow(np.empty((1, 0), dtype=np.int8))


def canonical_form(cs: CycleSet) -> CycleSet:
    """Lexicographically least table over all relabelings."""
    n = cs.n
    if n > _BRUTE_LIMIT:
        raise SizeTooLarge(f"brute-force canonical form is limited to n <= {_BRUTE_LIMIT}")
    # relabeling by P moves row x to row P(x) as P s_x P^-1, so the least
    # table's row 0 is the least _lay over x, and only the labelings that
    # reach it are scanned
    laid = [_laid(row, x) for x, row in enumerate(cs.table)]
    least = min(laid)[0]
    t = np.array(cs.table, dtype=np.intp).ravel()
    # a row packed base n into one int64 (n**n < 2**63 for n <= 15) compares
    # like the row itself
    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    points = np.arange(n)[:, None]
    best: list | None = None  # [(key, row)] of rows 1.. of the least table so far
    for block in _labelings(least, [base for lengths, base in laid if lengths == least]):
        inv = np.empty_like(block)  # column c is the inverse of block's column c
        inv[block, np.arange(block.shape[1])] = points
        below = best is None  # already known to beat best on an earlier row
        rows = []
        for u in range(1, n):
            # row u of each relabeled table, P[t[P^-1(u), P^-1(v)]] over v,
            # read from the flattened table and block
            w = block.shape[1]
            row = block.ravel().take(t.take(inv[u] * n + inv) * w + np.arange(w))
            key = powers @ row
            i = int(key.argmin())
            if not below:
                if key[i] > best[u - 1][0]:
                    break
                below = key[i] < best[u - 1][0]
            rows.append((key[i], row[:, i]))
            keep = key == key[i]
            if not keep.all():
                block, inv = block[:, keep], inv[:, keep]
        else:
            if below:
                best = rows
    return CycleSet(np.array([_lay(least), *(row for _, row in best)]))


def brute_iso(a: CycleSet, b: CycleSet) -> Perm | None:
    """The lexicographically first isomorphism a -> b by exhaustive scan (n <= 9)."""
    if a.n != b.n:
        return None
    if a.n > _BRUTE_LIMIT:
        raise SizeTooLarge(f"brute-force isomorphism is limited to n <= {_BRUTE_LIMIT}")
    hits = next(_morphisms(np.array(a.table), np.array(b.table)), None)
    return None if hits is None else tuple(hits[0].tolist())


def brute_aut(cs: CycleSet) -> list[Perm]:
    """All automorphisms in lexicographic order, by exhaustive scan (n <= 9)."""
    if cs.n > _BRUTE_LIMIT:
        raise SizeTooLarge(f"brute-force automorphisms are limited to n <= {_BRUTE_LIMIT}")
    t = np.array(cs.table)
    return [perm for hits in _morphisms(t, t) for perm in zip(*hits.T.tolist())]


class _Budget(Exception):
    pass


@dataclass
class _State:
    nodes: int = 0
    max_nodes: int | None = None
    deadline: float | None = None
    keep: tuple = ()  # the filters a complete table must pass
    canon: set = field(default_factory=set)  # canonical tables found


def _partitions(n: int, most: int):
    """The partitions of n into parts of at most ``most``, largest part first."""
    if n == 0:
        yield ()
    for k in range(min(n, most), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def _row0_reps(n: int) -> tuple[tuple[int, ...], ...]:
    """The row-0 representatives in lexicographic order, the identity first:
    every class has a table whose row 0 is one of them.

    Relabeling by a bijection P turns row x into P s_x P^-1 and moves it to
    row P(x), so any row of any table can become row 0, as any permutation of
    its cycle type whose cycle through 0 is as long as the one through x.  One
    permutation per pair (length k of the cycle through 0, partition of n - k
    into the other cycles) is enough: the cycle through 0 on 0..k-1, the
    other cycles on the points after it.
    """
    return tuple(sorted(_lay((k, *rest)) for k in range(1, n + 1) for rest in _partitions(n - k, n - k)))


def _close(rows, diag, trail, n: int) -> bool:
    """Run the square law to a fixpoint over the placed rows; False on a
    contradiction.

    rows[x] is row x, or None while it is unplaced; diag holds the placed
    rows' diagonal entries s_x(x).  For a placed pair a, b with u = s_a(b)
    and v = s_b(a), the law s_u s_a = s_v s_b is checked when rows u and v
    are placed, places s_u = s_v s_b s_a^-1 when only v is (the pair b, a
    gives the mirror case), and requires s_a = s_b when u = v is unplaced.  A
    row it places must keep the diagonal injective, and goes on ``trail``.
    Passes repeat until one places no row.
    """
    placing = True
    while placing:
        placing = False
        placed = [(a, r) for a, r in enumerate(rows) if r is not None]
        for a, ra in placed:
            for b, rb in placed:
                u, v = ra[b], rb[a]
                ru, rv = rows[u], rows[v]
                if rv is None:
                    if u == v and ra != rb:
                        return False
                    continue
                if ru is not None:  # the pair b, a states the same law
                    if a < b and tuple(map(ru.__getitem__, ra)) != tuple(map(rv.__getitem__, rb)):
                        return False
                    continue
                got = [0] * n
                for c, y in zip(ra, map(rv.__getitem__, rb)):  # s_u(s_a(c)) = s_v(s_b(c))
                    got[c] = y
                if got[u] in diag:
                    return False
                rows[u] = tuple(got)
                diag.add(got[u])
                trail.append(u)
                placing = True
    return True


def _extend(rows, diag, n, state, cands):
    """Try each of ``cands`` as the least unplaced row, close the square law
    over it, and try every permutation for the least row still unplaced."""
    x = next((y for y, row in enumerate(rows) if row is None), n)
    if x == n:
        # canonicalizing a hit is the expensive step at the top sizes, so the
        # deadline must be consulted here and not only every few hundred nodes
        if state.deadline is not None and time.monotonic() > state.deadline:
            raise _Budget
        cs = CycleSet(tuple(rows))
        if all(f(cs) for f in state.keep):  # relabeling-invariant, so test first
            state.canon.add(canonical_form(cs).table)
        return
    for perm in cands:
        state.nodes += 1
        if state.max_nodes is not None and state.nodes > state.max_nodes:
            raise _Budget
        if state.deadline is not None and state.nodes % 512 == 0 and time.monotonic() > state.deadline:
            raise _Budget
        if perm[x] in diag:
            continue
        rows[x], trail = perm, [x]
        diag.add(perm[x])
        if _close(rows, diag, trail, n):
            _extend(rows, diag, n, state, itertools.permutations(range(n)))
        for y in trail:
            diag.discard(rows[y][y])
            rows[y] = None


def _run_chunk(args):
    """The search under row-0 representatives i, i + jobs, i + 2*jobs, ...,
    on its share of the node budget."""
    n, i, jobs, max_nodes, deadline, keep = args
    share = None if max_nodes is None else max_nodes // jobs + (i < max_nodes % jobs)
    state = _State(max_nodes=share, deadline=deadline, keep=keep)
    try:
        _extend([None] * n, set(), n, state, _row0_reps(n)[i::jobs])
    except _Budget:
        return state.canon, state.nodes, False
    return state.canon, state.nodes, True


def enumerate_cycle_sets(opts: SearchOptions) -> OracleResult:
    """All cycle sets of size opts.n up to isomorphism, within the budgets.

    The result's ``complete`` flag records whether any budget tripped; when
    False the class list is a (still deduplicated) lower bound.  Row 0 is
    each of the row-0 representatives in turn (one per cycle type and length
    of the cycle through 0; 67 at n = 9), dealt round-robin to opts.jobs
    searches (at most one per CPU; more than one run in worker processes),
    which share max_nodes: max_nodes // jobs each, one more for the first
    max_nodes % jobs.  After each choice the square law places every row it
    decides from the rows placed; the least row still unplaced then tries
    every permutation in turn.  ``nodes`` counts every candidate tried,
    whatever jobs is; a row the law places is not a candidate.
    """
    n = opts.n
    if n < 1:
        raise ValueError("need n >= 1")
    if n > _BRUTE_LIMIT:
        raise SizeTooLarge(f"oracle enumeration is limited to n <= {_BRUTE_LIMIT}")
    if opts.jobs < 1:
        raise ValueError("need jobs >= 1")
    jobs = min(opts.jobs, os.cpu_count() or 1)
    start = time.monotonic()
    deadline = start + opts.time_budget if opts.time_budget is not None else None

    keep = (is_indecomposable,) * opts.indecomposable_only + (is_irretractable,) * opts.irretractable_only
    chunks = [(n, i, jobs, opts.max_nodes, deadline, keep) for i in range(jobs)]
    if jobs == 1:
        parts = list(map(_run_chunk, chunks))
    else:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_run_chunk, chunks)
    canons, counts, done = zip(*parts)
    classes = sorted(set().union(*canons))
    return OracleResult(tuple(map(CycleSet, classes)), all(done), sum(counts), time.monotonic() - start)
