"""Brute-force ground truth at small sizes.

Enumerates every cycle set table row by row (each row a permutation), pruning
on the diagonal bijection and on every square-law instance whose four
participating rows are already placed, then dedupes by the lexicographically
least relabeling.  Independent of the family constructors and of the refined
isomorphism engine, so it can audit both.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field

from .cycleset import CycleSet, is_indecomposable, is_irretractable
from .errors import SizeTooLarge
from .perms import Perm, inverse

_BRUTE_LIMIT = 9


@dataclass(frozen=True)
class SearchOptions:
    n: int
    indecomposable_only: bool = False
    irretractable_only: bool = False
    max_nodes: int | None = None
    time_budget: float | None = None
    jobs: int = 1


@dataclass(frozen=True)
class OracleResult:
    classes: tuple[CycleSet, ...]
    complete: bool
    nodes: int
    elapsed: float


def canonical_form(cs: CycleSet) -> CycleSet:
    """Lexicographically least table over all relabelings."""
    n = cs.n
    if n > _BRUTE_LIMIT:
        raise SizeTooLarge(f"canonical form by full scan is limited to n <= {_BRUTE_LIMIT}")
    t = cs.table
    best: tuple | None = None
    for perm in itertools.permutations(range(n)):
        inv = inverse(perm)
        cand = []
        decided = False
        worse = False
        for x in range(n):
            src = t[inv[x]]
            row = tuple(perm[src[inv[y]]] for y in range(n))
            if best is not None and not decided:
                ref = best[x]
                if row > ref:
                    worse = True
                    break
                if row < ref:
                    decided = True
            cand.append(row)
        if not worse and (best is None or decided):
            best = tuple(cand)
    return CycleSet(best)


def brute_iso(a: CycleSet, b: CycleSet) -> Perm | None:
    """Exhaustive isomorphism search over all bijections (n <= 9)."""
    if a.n != b.n:
        return None
    n = a.n
    if n > _BRUTE_LIMIT:
        raise SizeTooLarge(f"brute-force isomorphism is limited to n <= {_BRUTE_LIMIT}")
    ta, tb = a.table, b.table
    pts = range(n)
    for perm in itertools.permutations(pts):
        if all(perm[ta[x][y]] == tb[perm[x]][perm[y]] for x in pts for y in pts):
            return perm
    return None


def brute_aut(cs: CycleSet) -> list[Perm]:
    """All automorphisms by exhaustive scan (n <= 9)."""
    n = cs.n
    if n > _BRUTE_LIMIT:
        raise SizeTooLarge(f"brute-force automorphisms are limited to n <= {_BRUTE_LIMIT}")
    t = cs.table
    pts = range(n)
    return [
        perm
        for perm in itertools.permutations(pts)
        if all(perm[t[x][y]] == t[perm[x]][perm[y]] for x in pts for y in pts)
    ]


class _Budget(Exception):
    pass


@dataclass
class _State:
    nodes: int = 0
    max_nodes: int | None = None
    deadline: float | None = None
    canon: set = field(default_factory=set)  # canonical tables found


def _square_law_holds_at(rows, x: int, n: int) -> bool:
    """Check the square-law instances that become decidable once row x exists."""
    placed = x + 1
    for a in range(placed):
        ra = rows[a]
        for b in range(placed):
            u = ra[b]
            v = rows[b][a]
            if u >= placed or v >= placed:
                continue
            if max(a, b, u, v) != x:
                continue  # decided at an earlier depth
            ru, rv, rb = rows[u], rows[v], rows[b]
            if any(ru[ra[c]] != rv[rb[c]] for c in range(n)):
                return False
    return True


def _extend(rows, diag_used, n, state):
    x = len(rows)
    if x == n:
        # canonicalizing a hit is the expensive step at the top sizes, so the
        # deadline must be consulted here and not only every few hundred nodes
        if state.deadline is not None and time.monotonic() > state.deadline:
            raise _Budget
        cs = CycleSet(tuple(rows))
        state.canon.add(canonical_form(cs).table)
        return
    for perm in itertools.permutations(range(n)):
        state.nodes += 1
        if state.max_nodes is not None and state.nodes > state.max_nodes:
            raise _Budget
        if state.deadline is not None and state.nodes % 512 == 0 and time.monotonic() > state.deadline:
            raise _Budget
        if perm[x] in diag_used:
            continue
        rows.append(perm)
        if _square_law_holds_at(rows, x, n):
            diag_used.add(perm[x])
            _extend(rows, diag_used, n, state)
            diag_used.discard(perm[x])
        rows.pop()


def _run_chunk(args):
    n, first_rows, max_nodes, deadline = args
    state = _State(max_nodes=max_nodes, deadline=deadline)
    complete = True
    try:
        if first_rows is None:
            _extend([], set(), n, state)
        else:
            for row in first_rows:
                rows = [row]
                if _square_law_holds_at(rows, 0, n):
                    _extend(rows, {row[0]}, n, state)
    except _Budget:
        complete = False
    return state.canon, state.nodes, complete


def enumerate_cycle_sets(opts: SearchOptions) -> OracleResult:
    """All cycle sets of size opts.n up to isomorphism, within the budgets.

    The result's ``complete`` flag records whether any budget tripped; when
    False the class list is a (still deduplicated) lower bound.  The search
    runs in opts.jobs worker processes, at most one per CPU.
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

    if jobs > 1:
        import multiprocessing

        first = list(itertools.permutations(range(n)))
        chunks = [first[i :: jobs] for i in range(jobs)]
        per_chunk = None if opts.max_nodes is None else max(1, opts.max_nodes // jobs)
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(
                _run_chunk, [(n, chunk, per_chunk, deadline) for chunk in chunks]
            )
        canon = set().union(*(p[0] for p in parts))
        nodes = sum(p[1] for p in parts)
        complete = all(p[2] for p in parts)
    else:
        canon, nodes, complete = _run_chunk((n, None, opts.max_nodes, deadline))

    classes = [CycleSet(t) for t in canon]
    if opts.indecomposable_only:
        classes = [c for c in classes if is_indecomposable(c)]
    if opts.irretractable_only:
        classes = [c for c in classes if is_irretractable(c)]
    classes.sort(key=lambda c: c.table)
    return OracleResult(tuple(classes), complete, nodes, time.monotonic() - start)
