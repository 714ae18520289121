"""Permutations as tuples, plus the group machinery built on them.

A permutation of degree n is a tuple ``p`` of length n with ``p[i]`` the image
of ``i``.  Composition is right-to-left: ``compose(a, b)`` applies ``b`` first.
``closure`` is the one group-closure engine; it works on int32 rows.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .errors import CapExceeded, NotTransitive

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """Return a∘b, the map x -> a[b[x]]."""
    return tuple(a[x] for x in b)


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def inverse_rows(t) -> np.ndarray:
    """The row-wise inverse of a table of permutation rows: out[x, t[x, y]] = y."""
    t = np.asarray(t)
    out = np.zeros_like(t)
    out[np.arange(len(t))[:, None], t] = np.arange(t.shape[1])
    return out


def is_perm(seq) -> bool:
    n = len(seq)
    return all(isinstance(x, int) and 0 <= x < n for x in seq) and len(set(seq)) == n


def perm_order(a: Perm) -> int:
    return lcm(*cycle_type(a))


def cycle_type(a: Perm) -> tuple[int, ...]:
    """Sorted tuple of cycle lengths, fixed points included."""
    n = len(a)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def closure(gens, cap: int = 1_000_000) -> np.ndarray:
    """The group generated by ``gens``, as an (order, n) int32 array.

    Row 0 is the identity; the others follow in breadth-first discovery
    order, where a frontier element f yields f∘g for each generator g in
    turn (all products with the first generator, then the second, ...).
    Rows are keyed by their bytes, and repeated generators are dropped in
    first-appearance order.  Raises CapExceeded when the group would have
    more than ``cap`` elements.
    """
    gens = np.array(gens, dtype=np.int32, ndmin=2)
    n = gens.shape[1]
    if n == 0:
        raise ValueError("closure needs the degree: pass at least one generator")
    ident = np.arange(n, dtype=np.int32)
    stride = ident.nbytes
    buf = gens.tobytes()
    first: dict[bytes, int] = {}
    for i, r in enumerate(range(0, len(buf), stride)):
        first.setdefault(buf[r : r + stride], i)
    gens = gens[list(first.values())]
    seen = {ident.tobytes()}
    levels = [ident[None, :]]
    while len(levels[-1]):
        frontier = levels[-1]
        # generators in groups of about 2**16 candidate rows, generator-major
        step = -(-(1 << 16) // len(frontier))
        fresh = []
        for s in range(0, len(gens), step):
            buf = frontier[:, gens[s : s + step]].swapaxes(0, 1).tobytes()
            for r in range(0, len(buf), stride):
                key = buf[r : r + stride]
                if key not in seen:
                    seen.add(key)
                    fresh.append(key)
                    if len(seen) > cap:
                        raise CapExceeded(cap)
        levels.append(np.frombuffer(b"".join(fresh), dtype=np.int32).reshape(-1, n))
    return np.concatenate(levels)


def orbits(gens, n: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of <gens> on {0..n-1}, each sorted, ordered by least element."""
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        orb = [s]
        seen[s] = True
        stack = [s]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    orb.append(y)
                    stack.append(y)
        out.append(tuple(sorted(orb)))
    return tuple(out)


def is_transitive(gens, n: int) -> bool:
    return len(orbits(gens, n)) == 1


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _minimal_block_system(gens, n: int, seed: int) -> tuple[tuple[int, ...], ...] | None:
    """Finest block system whose block containing 0 also contains ``seed``.

    Returns None when that system is the trivial one-block partition.
    """
    uf = _UnionFind(n)
    uf.union(0, seed)
    queue = [(0, seed)]
    while queue:
        a, b = queue.pop()
        for g in gens:
            ga, gb = g[a], g[b]
            if uf.find(ga) != uf.find(gb):
                uf.union(ga, gb)
                queue.append((ga, gb))
    blocks = {}
    for x in range(n):
        blocks.setdefault(uf.find(x), []).append(x)
    if len(blocks) == 1:
        return None
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


def block_systems(gens, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Minimal nontrivial block systems of a transitive group on {0..n-1}.

    Each system is a partition of the points: a tuple of sorted blocks, itself
    sorted.  Raises NotTransitive if the group is not transitive.
    """
    gens = [tuple(g) for g in gens]
    if not is_transitive(gens, n):
        raise NotTransitive(f"group is not transitive on {n} points")
    systems = set()
    for seed in range(1, n):
        system = _minimal_block_system(gens, n, seed)
        if system is not None:
            systems.add(system)
    return sorted(systems)
