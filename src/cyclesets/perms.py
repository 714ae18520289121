"""Permutations as tuples, plus the group machinery built on them.

A permutation of degree n is a tuple ``p`` of length n with ``p[i]`` the image
of ``i``.  ``closure`` is the one group-closure engine; it works on int32 rows
and also returns the index of every product element o generator that it forms.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count, islice
from numbers import Integral

import numpy as np

from .counting import is_prime
from .errors import CapExceeded, NotTransitive

Perm = tuple[int, ...]
_CAP = 1_000_000  # the most elements a closure builds


def identity(n: int) -> Perm:
    return tuple(range(n))


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
    """True for a sequence of integers (numpy's too, bools not) listing 0..n-1 once each."""
    n = len(seq)
    ints = all(isinstance(x, Integral) and not isinstance(x, bool) and 0 <= x < n for x in seq)
    return ints and len(set(seq)) == n


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


def closure(gens) -> tuple[np.ndarray, np.ndarray]:
    """The group generated by ``gens``, and the products formed closing it.

    Returns ``(elems, mul)``: the (order, n) int32 element rows, and the int32
    index ``mul[i, k]`` of elems[i] o gens[k], one column per given generator.
    Row 0 is the identity; the others follow in breadth-first discovery
    order, where a frontier element f yields f o g for each distinct
    generator g in first-appearance order (all products with the first one,
    then the second, ...).  Rows are keyed by their bytes.  Raises
    CapExceeded when the group would have more than ``_CAP`` elements.
    """
    gens = np.array(gens, dtype=np.int32, ndmin=2)
    n = gens.shape[1]
    if n == 0:
        raise ValueError("closure needs the degree: pass at least one generator")
    row = np.dtype((np.void, 4 * n))  # one row's bytes, the element key
    first: dict[bytes, int] = {}
    keys = gens.view(row).ravel().tolist()
    col = np.array([first.setdefault(k, len(first)) for k in keys], dtype=np.intp)
    distinct = np.frombuffer(b"".join(first), dtype=np.int32).reshape(-1, n)
    # row bytes -> element index, in discovery order; an unseen row takes the next index
    index = defaultdict(count().__next__)
    index[np.arange(n, dtype=np.int32).tobytes()]  # the identity is element 0
    levels, mul = [np.arange(n, dtype=np.int32)[None, :]], []
    while len(levels[-1]):
        frontier, known = levels[-1], len(index)
        idx = np.empty((len(distinct), len(frontier)), dtype=np.int32)
        # generators in groups of about 2**16 candidate rows, generator-major
        step = -(-(1 << 16) // len(frontier))
        for s in range(0, len(distinct), step):
            cand = np.ascontiguousarray(frontier[:, distinct[s : s + step]].swapaxes(0, 1))
            keys = cand.view(row).ravel().tolist()
            got = np.fromiter(map(index.__getitem__, keys), dtype=np.int32, count=len(keys))
            if len(index) > _CAP:
                raise CapExceeded(_CAP)
            idx[s : s + step] = got.reshape(-1, len(frontier))
        mul.append(idx.take(col, axis=0).T)
        fresh = list(islice(reversed(index), len(index) - known))[::-1]  # this level's keys
        levels.append(np.frombuffer(b"".join(fresh), dtype=np.int32).reshape(-1, n))
    del index
    elems = np.concatenate(levels)
    del levels
    return elems, np.concatenate(mul)


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
            self.parent[x] = x = self.parent[self.parent[x]]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _roots(maps, n: int, pairs) -> list[int] | None:
    """Each point's least block-mate in the finest partition of {0..n-1} that
    joins ``pairs`` and whose blocks every map, permutation or not, sends into
    blocks (Atkinson's closure; unions keep the lesser root), or None."""
    uf = _UnionFind(n)
    queue = [(a, b) for a, b in pairs if uf.union(a, b)]
    joined = len(queue)
    while queue and joined < n - 1:
        a, b = queue.pop()
        for g in maps:
            if uf.union(g[a], g[b]):
                joined += 1
                queue.append((g[a], g[b]))
    return None if joined == n - 1 else [uf.find(x) for x in range(n)]


def _blocks(roots) -> tuple[tuple[int, ...], ...]:
    """The sorted blocks of the partition with these least block-mates."""
    return tuple(tuple(x for x, r in enumerate(roots) if r == least) for least in dict.fromkeys(roots))


def block_systems(gens, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The systems of a transitive group on {0..n-1} spanned by the least block
    holding 0 and s, for each s != 0 whose least block is not all the points.

    All minimal nontrivial systems are listed, and not only those: for Z_8
    acting regularly both {0, 4} and {0, 2, 4, 6} span one.  A system is a
    sorted tuple of sorted blocks; the list is sorted.  Raises NotTransitive.
    """
    gens = np.array(gens, dtype=np.intp).reshape(-1, n).tolist()
    if not is_transitive(gens, n):
        raise NotTransitive(f"group is not transitive on {n} points")
    return sorted(map(_blocks, set(_seed_systems(gens, n))))


def _seed_systems(gens, n: int, extra=()):
    """The systems of ``block_systems``, as tuples of least block-mates, in the
    order the seeds s = 1, 2, ... find them, possibly repeated.  With
    ``extra`` maps, the partitions the seeds span under the gens and those
    maps together: the gens must act transitively, and the extra maps need
    not be permutations, as with the rows and columns of an indecomposable
    cycle set.

    The union-find runs over a few maps, adding the first one that breaks a
    partition found and going on from it; it adds an extra map only once the
    gens respect the partition.  The seeds in the block of 0 that a seed s
    spans under the gens alone are skipped when that block has prime size:
    a transitive group's blocks have equal sizes, so under the gens each of
    them spans the same block, and it spans with the extra maps what s does.
    """
    gens = np.array(gens, dtype=np.intp).reshape(-1, n)
    every = np.concatenate([gens, np.array(extra, dtype=np.intp).reshape(-1, n)])
    maps, k = every.tolist(), len(gens)
    used_gens, used_every = maps[:1], maps[:1]
    skip = set()
    for seed in range(1, n):
        if seed in skip:
            continue
        used, pairs = used_gens, [(0, seed)]
        while (roots := _roots(used, n, pairs)) is not None:
            root = np.array(roots)
            moved = root[every]
            bad = moved != moved[:, root]  # root[g[x]] != root[g[root[x]]]
            first = int(bad.argmax())
            g = first // n if bad.flat[first] else len(maps)  # the first map that breaks it
            if g >= k and used is used_gens:
                if is_prime(roots.count(0)):
                    skip.update(x for x, r in enumerate(roots) if r == 0)
                used = used_every
            if g == len(maps):
                yield tuple(roots)
                break
            used.append(maps[g])
            pairs = enumerate(roots)
