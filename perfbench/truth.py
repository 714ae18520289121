"""Ground truth the benchmark computes on its own, without the package.

Tables are numpy arrays with ``t[x, y] = x*y``; a point (a, x) of the
size-p^2 families is index ``a*k + x``.  Everything here follows the
defining formulas, so an item's output is compared against an independent
construction rather than against another call into the code under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Class counts of indecomposable cycle sets of size p^2 (cyclic, mpl2,
# irretractable with f(0) != 0, irretractable with f(0) = 0).
REFERENCE_COUNTS = {
    2: (1, 2, 1, 1),
    3: (1, 12, 2, 1),
    5: (1, 780, 24, 6),
    7: (1, 137256, 342, 65),
    11: (1, 28531167060, 161050, 16129),
}

# All cycle sets of size n up to isomorphism, and the indecomposable ones
# (Etingof-Schedler-Soloviev 1999; Akguen-Mereb-Vendramin 2022).
CENSUS_ALL = {1: 1, 2: 2, 3: 5, 4: 23, 5: 88}
CENSUS_INDECOMPOSABLE = {1: 1, 2: 1, 3: 1, 4: 5, 5: 1}


def mpl2_count(p: int) -> int:
    """Orbits of the free scaling action of the units on pairs (f != 0, s)."""
    return p * (p ** (p - 1) - 1) // (p - 1)


def cyclic_table(n: int) -> np.ndarray:
    return np.broadcast_to((np.arange(n) + 1) % n, (n, n)).copy()


def mpl2_table(m: int, k: int, f, s: int) -> np.ndarray:
    """(a,x)*(b,y) = (b+1, y + [b=0]*s + f(b-a)) on Z_m x Z_k."""
    f = np.asarray(f, dtype=np.int64) % k
    a, x, b, y = np.ix_(np.arange(m), np.arange(k), np.arange(m), np.arange(k))
    first = (b + 1) % m
    second = (y + (b == 0) * s + f[(b - a) % m] + 0 * x) % k  # x*(-) does not depend on x
    return (first * k + second).reshape(m * k, m * k)


def irr_table(p: int, f, alpha: int) -> np.ndarray:
    """(a,x)*(b,y) = (alpha*(b+x), alpha*(y + f(b-a))) on Z_p x Z_p."""
    f = np.asarray(f, dtype=np.int64) % p
    a, x, b, y = np.ix_(np.arange(p), np.arange(p), np.arange(p), np.arange(p))
    first = (alpha * (b + x)) % p
    second = (alpha * (y + f[(b - a) % p])) % p
    return (first * p + second).reshape(p * p, p * p)


def params_table(doc: dict) -> np.ndarray:
    """Table of a family member given in its JSON parameter form."""
    family = doc["family"]
    if family == "cyclic":
        return cyclic_table(doc["p"] ** 2)
    if family == "mpl2":
        (k,) = doc["a_invariants"]
        return mpl2_table(doc["m"], k, doc["phi"], doc["s"])
    return irr_table(doc["p"], doc["phi"], doc["alpha"])


def union_table(*tables) -> np.ndarray:
    """Disjoint union: each row acts on its own component, fixes the rest."""
    n = sum(t.shape[0] for t in tables)
    out = np.broadcast_to(np.arange(n), (n, n)).copy()
    off = 0
    for t in tables:
        k = t.shape[0]
        out[off : off + k, off : off + k] = t + off
        off += k
    return out


def relabel(t: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table carried along ``perm``: u*v = perm[x*y] for u = perm[x], v = perm[y]."""
    inv = np.argsort(perm)
    return perm[t][inv][:, inv]


def unrank_perm(rank: int, n: int) -> tuple[int, ...]:
    """The permutation of 0..n-1 at position ``rank`` in lexicographic order."""
    pool = list(range(n))
    out = []
    for i in range(n, 0, -1):
        q, rank = divmod(rank, math.factorial(i - 1))
        out.append(pool.pop(q))
    return tuple(out)


def is_cycle_set(t: np.ndarray) -> bool:
    n = t.shape[0]
    ar = np.arange(n)
    if t.shape != (n, n) or not (np.sort(t, axis=1) == ar).all():
        return False
    if not (np.sort(t[ar, ar]) == ar).all():
        return False
    for x in range(n):  # (x*y)*(x*z) = (y*x)*(y*z), one x at a time
        lhs = t[t[x][:, None], t[x][None, :]]
        rhs = t[t[:, x][:, None], t]
        if not (lhs == rhs).all():
            return False
    return True


def is_transitive(t: np.ndarray) -> bool:
    """Whether the rows generate a transitive group (indecomposability)."""
    n = t.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        img = np.unique(t[:, frontier])
        frontier = img[~seen[img]]
        seen[frontier] = True
    return bool(seen.all())


def is_morphism(ta: np.ndarray, tb: np.ndarray, f) -> bool:
    """f(x*y) = f(x)*f(y) for every pair, with f a bijection."""
    f = np.asarray(f, dtype=np.int64)
    n = ta.shape[0]
    if f.shape != (n,) or not (np.sort(f) == np.arange(n)).all():
        return False
    return bool((f[ta] == tb[f][:, f]).all())


def solution_of(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lam_x = (x*(-))^{-1} and rho_y(x) = lam_x(y)*x, as lam[x, y], rho[y, x]."""
    n = t.shape[0]
    lam = np.argsort(t, axis=1)
    rho = t[lam, np.arange(n)[:, None]].T
    return lam, rho


def is_quadratic(p: int, phi) -> bool:
    """f(a) = f(0) + d*a^2 for some d; these members have a much smaller row group."""
    d = (phi[1] - phi[0]) % p
    return all((phi[a] - phi[0]) % p == (d * a * a) % p for a in range(p))


def phi_stabilizer(p: int, phi) -> list[int]:
    """Units alpha with f(alpha*a) = alpha*f(a) for every a."""
    return [al for al in range(1, p) if all(phi[(al * a) % p] == (al * phi[a]) % p for a in range(p))]


def group_order(t: np.ndarray, cap: int = 100_000) -> int:
    """Order of the group generated by the inverse rows, by breadth-first closure."""
    n = t.shape[0]
    gens = np.unique(np.argsort(t, axis=1), axis=0).astype(np.int16)
    ident = np.arange(n, dtype=np.int16)
    seen = {ident.tobytes()}
    frontier = ident[None, :]
    while frontier.shape[0]:
        cand = np.unique(frontier[:, gens].reshape(-1, n), axis=0)  # f o g
        fresh = [row for row in cand if row.tobytes() not in seen]
        seen.update(row.tobytes() for row in fresh)
        if len(seen) > cap:
            raise ValueError("group larger than the cap")
        frontier = np.array(fresh, dtype=np.int16).reshape(-1, n)
    return len(seen)


def all_perms(n: int) -> np.ndarray:
    """Every permutation of 0..n-1, one per row, in lexicographic order."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.uint8)


def automorphisms(t: np.ndarray) -> set[tuple[int, ...]]:
    """Every f with f(x*y) = f(x)*f(y), by a scan over all n! maps."""
    f = all_perms(t.shape[0]).astype(np.intp)
    lhs = np.take_along_axis(f, t.reshape(1, -1).repeat(f.shape[0], axis=0), axis=1)  # f[x*y]
    rhs = t[f[:, :, None], f[:, None, :]].reshape(f.shape[0], -1)  # f(x)*f(y)
    return {tuple(row) for row in f[(lhs == rhs).all(axis=1)].tolist()}


def least_relabelling(t: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The lexicographically least table (row by row) over all n! relabellings."""
    n = t.shape[0]
    perm = all_perms(n).astype(np.intp)
    inv = np.argsort(perm, axis=1)
    # row x of the relabelled table: perm[t[inv[x], inv[y]]] over y
    tables = np.take_along_axis(perm, t[inv[:, :, None], inv[:, None, :]].reshape(perm.shape[0], -1), axis=1)
    flat = tables.astype(np.uint8)
    best = min(range(flat.shape[0]), key=lambda k: flat[k].tobytes())
    return tuple(map(tuple, tables[best].reshape(n, n).tolist()))


def brace_fix(t: np.ndarray) -> set[tuple[int, ...]]:
    """Elements a of the permutation brace with lambda_s(a) = a for every s.

    The brace lives on the group generated by g_x = (x*(-))^{-1}, with
    a + g_x = a o g_{a^{-1}(x)} and lambda_a(g_x) = g_{a(x)}.  Each element
    gets an additive word from a breadth-first search; lambda_{g_y} carries
    the word x1..xk to g_y(x1)..g_y(xk).  Generators g_y suffice, since
    lambda is multiplicative.
    """
    n = t.shape[0]
    gens = [tuple(g) for g in np.argsort(t, axis=1).tolist()]

    def plus_gen(a, x):
        g = gens[a.index(x)]  # a^{-1}(x)
        return tuple(a[v] for v in g)

    ident = tuple(range(n))
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for x in range(n):
                b = plus_gen(a, x)
                if b not in words:
                    words[b] = words[a] + (x,)
                    nxt.append(b)
        frontier = nxt

    def image(word, s):
        acc = ident
        for x in word:
            acc = plus_gen(acc, s[x])
        return acc

    return {a for a, w in words.items() if all(image(w, s) == a for s in set(gens))}
