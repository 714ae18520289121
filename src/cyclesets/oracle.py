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

``canonical_form`` scans the n! bijections in lexicographic order in numpy
blocks (``_blocks``); ``brute_iso`` and ``brute_aut`` grow partial maps point
by point in the same order (``_morphisms``).  So their outputs are the least
table, the first isomorphism and the automorphisms in order, as a loop over
``itertools.permutations`` would give them.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .cycleset import CycleSet, is_indecomposable, is_irretractable
from .errors import SizeTooLarge
from .perms import Perm

_BRUTE_LIMIT = 9
# canonical_form's 720-bijection blocks stay small enough to be reused from the heap; 5040 was slower
_TAIL = 6
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


@functools.cache
def _tail_table(m: int) -> np.ndarray:
    """The m! permutations of range(m) in lexicographic order, one per int8 column."""
    table = np.array(list(zip(*itertools.permutations(range(m)))), dtype=np.int8)
    table.flags.writeable = False  # shared by every scan
    return table


def _blocks(n: int):
    """All bijections of range(n) in lexicographic order, one block at a time,
    for canonical_form.

    A block is an (n, m!) intp array whose columns are the bijections: it
    fixes the images of the first n - m points and runs the other m through
    all their arrangements (m = min(n, _TAIL)), so at most 6! = 720
    bijections are held at once.
    """
    m = min(n, _TAIL)
    tail = _tail_table(m).astype(np.intp)
    for prefix in itertools.permutations(range(n), n - m):
        rest = np.array(sorted(set(range(n)).difference(prefix)), dtype=np.intp)
        block = np.empty((n, tail.shape[1]), dtype=np.intp)
        block[: n - m] = np.array(prefix, dtype=np.intp)[:, None]
        block[n - m :] = rest[tail]
        yield block


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
        raise SizeTooLarge(f"canonical form by full scan is limited to n <= {_BRUTE_LIMIT}")
    t = np.array(cs.table, dtype=np.intp)
    # a row packed base n into one int64 (n**n < 2**63 for n <= 15) compares
    # like the row itself
    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    points = np.arange(n)[:, None]
    best: list | None = None  # [(key, row)] of the least table so far
    for block in _blocks(n):
        inv = np.empty_like(block)  # column c is the inverse of block's column c
        inv[block, np.arange(block.shape[1])] = points
        below = best is None  # already known to beat best on an earlier row
        rows = []
        for u in range(n):
            # row u of each relabeled table, P[t[P^-1(u), P^-1(v)]] over v,
            # read from the flattened block
            w = block.shape[1]
            row = block.ravel()[t[inv[u], inv] * w + np.arange(w)]
            key = powers @ row
            i = int(key.argmin())
            if not below:
                if key[i] > best[u][0]:
                    break
                below = key[i] < best[u][0]
            rows.append((key[i], row[:, i]))
            keep = key == key[i]
            if not keep.all():
                block, inv = block[:, keep], inv[:, keep]
        else:
            if below:
                best = rows
    return CycleSet(np.array([row for _, row in best]))


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
    reps = []
    for k in range(1, n + 1):
        for rest in _partitions(n - k, n - k):
            perm: list[int] = []
            for length in (k, *rest):
                perm += [len(perm) + (i + 1) % length for i in range(length)]
            reps.append(tuple(perm))
    return tuple(sorted(reps))


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
