"""Brace structure on the permutation group generated by a cycle set's rows.

Let G be the group generated (under composition) by the inverse rows
g_x = (x*(-))^{-1}.  G carries an abelian addition determined by

    a + g_x = a o g_{a^{-1}(x)}        (equivalently g_x + g_y = g_x o g_{sigma_x(y)})

which makes (G, +, o) a brace: lambda_a(b) = -a + a o b is an additive
automorphism for every a, and lambda_a(g_x) = g_{a(x)}.

G is closed by ``perms.closure``; element i is row i of its result, and
element 0 (the identity) is the additive zero.  The table kept is
``plus[i, x] = i + g_x``, read off the closure's products, with its
column-wise inverse ``minus[i, x] = i - g_x`` built on the first negation.
The closure numbers the elements breadth-first, so its levels are index
ranges, and each j != 0 takes as parent the least row of ``plus`` holding
it, one level up; this spanning tree gives every element a generator word.
Every operation folds acc = table[acc, z] over a word's letters z: i + j
adds j's letters g_z to i, -j subtracts them from zero, lambda_i(j) adds
the twisted letters g_{i(z)} to zero and i o j = i + lambda_i(j) adds them
to i.  No fold looks up a row, so ``verify_brace`` checks o against
the composition of the rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cycleset import CycleSet, _distinct, _points, assert_valid
from .errors import InvariantViolation, SizeTooLarge
from .perms import closure, inverse_rows

_TABLE_MAX = 512  # the largest group order whose (order, order) tables are built


@dataclass(frozen=True)
class BraceSubset:
    """A subset of element indices together with its structural tags."""

    indices: tuple[int, ...]
    add_subgroup: bool
    circ_subgroup: bool
    left_ideal: bool
    ideal: bool


class PermBrace:
    """Use build_perm_brace: ``elems, mul = closure(gens)`` for the inverse
    rows ``gens``, so ``mul[i, k]`` is the index of elems[i] o g_k."""

    def __init__(self, elems, mul):
        self.n_points = elems.shape[1]
        self.elems = elems  # (order, n_points) int32, row i = permutation of element i
        self.inv_elems = inverse_rows(elems)
        self.gidx = mul[0].astype(np.int64)  # gidx[x] = index of g_x = (x*(-))^{-1}
        # plus[i, x] = i + g_x = i o g_{i^{-1}(x)}
        self.plus = np.take_along_axis(mul, self.inv_elems, 1).astype(np.int64)
        self.zero = 0
        # j = parent_elem[j] + g_{parent_point[j]} at j's first place in plus, read
        # row by row.  Row f of plus permutes the columns of mul[f], so that row is
        # the least one holding j: in closure's breadth-first numbering, j's parent
        # one level up.  So the levels are index ranges and parent_elem[j] < j.
        first = np.full(len(elems), self.plus.size)
        np.minimum.at(first, self.plus.ravel(), np.arange(self.plus.size))
        self.parent_elem, self.parent_point = np.divmod(first, self.n_points)
        self.parent_elem[self.zero] = self.parent_point[self.zero] = -1
        # level k + 1 ends after zero and the elements whose parents lie in levels 0..k
        ends, sorted_parents = [1], np.sort(self.parent_elem)
        while ends[-1] < len(elems):
            ends.append(int(np.searchsorted(sorted_parents, ends[-1])))
        self.levels = [slice(a, b) for a, b in zip([0, *ends], ends)]

    @cached_property
    def minus(self) -> np.ndarray:
        """minus[i, x] = i - g_x, the column-wise inverse of plus, built on the first negation."""
        minus = np.empty_like(self.plus)
        minus[self.plus, np.arange(self.n_points)] = np.arange(self.order)[:, None]
        return minus

    # -- elements --------------------------------------------------------------

    @property
    def order(self) -> int:
        return self.elems.shape[0]

    def perm(self, i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.elems[i])

    @cached_property
    def _index(self) -> dict:
        """Row bytes -> element index, built on the first index_of call."""
        keys = self.elems.view(np.dtype((np.void, self.elems.strides[0]))).ravel().tolist()
        return dict(zip(keys, range(self.order)))

    def index_of(self, perm) -> int:
        """The index of the element whose row is ``perm``; ValueError for
        anything else, including rows of non-integers or of the wrong length."""
        pts = _points(perm, self.n_points)
        if pts.shape != (self.n_points,):
            raise ValueError(f"a permutation has {self.n_points} points")
        try:
            return self._index[pts.astype(self.elems.dtype).tobytes()]
        except KeyError:
            raise ValueError("permutation is not in the group") from None

    # -- folds over index arrays ----------------------------------------------

    def _fold_words(self, table, acc, j, i=None) -> np.ndarray:
        """acc = table[acc, z] for each letter z of j's word, one pass per letter
        over the still-live flat positions; a subscript i reads z as elems[i, z],
        as lambda_i(g_z) = g_{i(z)}.  acc, j and i share one shape, 0-d included."""
        shape = np.shape(j)
        acc = np.array(acc, dtype=np.int64).reshape(-1)
        cur = np.array(j, dtype=np.int64).reshape(-1)
        i = None if i is None else np.asarray(i, dtype=np.int64).reshape(-1)
        live = np.flatnonzero(cur != self.zero)
        while live.size:
            c = cur[live]
            z = self.parent_point[c]
            acc[live] = table[acc[live], z if i is None else self.elems[i[live], z]]
            cur[live] = c = self.parent_elem[c]
            live = live[c != self.zero]
        return acc.reshape(shape)

    def add_many(self, i, j) -> np.ndarray:
        """i + j, elementwise."""
        return self._fold_words(self.plus, i, j)

    def lam_many(self, i, j) -> np.ndarray:
        """lambda_i(j) = -i + i o j, elementwise."""
        return self._fold_words(self.plus, np.full(np.shape(j), self.zero), j, i)

    def circ_many(self, i, j) -> np.ndarray:
        """i o j = i + lambda_i(j), elementwise."""
        return self._fold_words(self.plus, i, j, i)

    def neg_many(self, i) -> np.ndarray:
        """-i, elementwise."""
        return self._fold_words(self.minus, np.full(np.shape(i), self.zero), i)

    def add_pow(self, k: int, i) -> np.ndarray:
        """The additive multiple k·i, elementwise (k may be negative)."""
        if k < 0:
            return self.add_pow(-k, self.neg_many(i))
        acc, base = np.full(np.shape(i), self.zero), np.asarray(i, dtype=np.int64)
        while k:
            if k & 1:
                acc = self.add_many(acc, base)
            base = self.add_many(base, base)
            k >>= 1
        return acc

    def neg(self, i: int) -> int:
        return int(self.neg_many(i))

    @cached_property
    def _scalar(self) -> tuple[array, array, list]:
        """plus and elems as flat Python arrays, and each element's word as a
        tuple of letters in _fold_words' order, built on the first scalar call."""
        pe, pp = self.parent_elem.tolist(), self.parent_point.tolist()
        words = [()] * self.order
        for j in range(1, self.order):  # parents come first
            words[j] = (pp[j], *words[pe[j]])
        flat = lambda a: array("q", a.astype(np.int64).tobytes())
        return flat(self.plus), flat(self.elems), words

    def _fold(self, acc: int, j: int, i: int = 0) -> int:
        """acc + lambda_i(j) (lambda_0 is the identity), one letter at a time; the
        array fold's set-up would cost a scalar call some thirty times as much."""
        plus, elems, words = self._scalar
        n, acc, row = self.n_points, int(acc), int(i) * self.n_points
        for z in words[j]:
            acc = plus[acc * n + elems[row + z]]
        return acc

    def add(self, i: int, j: int) -> int:
        return self._fold(i, j)

    def lam(self, i: int, j: int) -> int:
        return self._fold(self.zero, j, i)

    def circ(self, i: int, j: int) -> int:
        return self._fold(i, j, i)

    # -- folds down the BFS levels (O(order) each) ------------------------------

    def _fold_levels(self, start, i) -> np.ndarray:
        """out[j] = start + lambda_i(j) (lambda_0 is the identity) for every j,
        level by level down the BFS tree; an index array i (and start) runs
        along a trailing axis."""
        pts = self.elems[i].T[self.parent_point]  # pts[j] = i(z) for the last letter z of j
        out = np.empty(pts.shape, dtype=np.int64)
        out[self.zero] = start
        for level in self.levels[1:]:
            out[level] = self.plus[out[self.parent_elem[level]], pts[level]]
        return out

    def lam_row(self, i: int) -> np.ndarray:
        """out[j] = lambda_i(j) for every j."""
        return self._fold_levels(self.zero, i)

    def circ_row_left(self, i: int) -> np.ndarray:
        """All products i o j as an index array over j."""
        return self._fold_levels(i, i)

    def circ_row_right(self, i: int) -> np.ndarray:
        """All products j o i as an index array over j."""
        return self.circ_many(np.arange(self.order), np.full(self.order, i))

    # -- distinguished subsets -------------------------------------------------

    def socle(self) -> BraceSubset:
        """a with lambda_a = id, i.e. g_{a(z)} = g_z for every point z."""
        mask = (self.gidx[self.elems] == self.gidx).all(axis=1)
        return self._tag(np.flatnonzero(mask), circ_sub=True)

    def fix(self) -> BraceSubset:
        """Elements fixed by every lambda_s; the generators suffice, as lambda is multiplicative."""
        cand = np.arange(self.order)
        for g in _distinct(self.gidx):
            lr = self.lam_row(int(g))
            cand = cand[lr[cand] == cand]
        # o-closed (conjugate the subscript); being lambda-stable, it is then
        # +-closed too, as a + b = a o lambda_a^{-1}(b).
        return self._tag(cand, circ_sub=True)

    def block_stabilizer(self, system) -> BraceSubset:
        """Elements whose point permutation maps every block of the partition ``system`` onto itself."""
        blocks = [_points(block, self.n_points) for block in system]
        flat = np.concatenate([np.empty(0, dtype=np.intp), *blocks])
        if not np.array_equal(np.sort(flat), np.arange(self.n_points)):
            raise ValueError("the blocks must hold every point exactly once")
        block_of = np.empty(self.n_points, dtype=np.int64)
        block_of[flat] = np.repeat(np.arange(len(blocks)), [b.size for b in blocks])
        mask = (block_of[self.elems] == block_of[None, :]).all(axis=1)
        return self._tag(np.flatnonzero(mask), circ_sub=True)

    def circ_center(self) -> BraceSubset:
        """Elements commuting with everything under the circle product."""
        mask = np.ones(self.order, dtype=bool)
        for g in _distinct(self.gidx):
            mask &= self.circ_row_left(int(g)) == self.circ_row_right(int(g))
        return self._tag(np.flatnonzero(mask), circ_sub=True)

    def circ_span(self, indices) -> tuple[int, ...]:
        """Subgroup generated under o by the given elements."""
        gens = _points(indices, self.order, "element")
        return tuple(np.flatnonzero(self._span(gens, self.circ_many)).tolist())

    def _span(self, gens, op, inside=None) -> np.ndarray | None:
        """Mask of the subgroup the index array ``gens`` generates under ``op``
        (circ_many or add_many); None once a product leaves the mask ``inside``.
        From zero, each generator not yet reached multiplies the span so far,
        then each new element meets every generator taken.  Each one at least
        doubles the span, so a subgroup S costs at most |S| log2 |S| products."""
        span, taken = np.arange(self.order) == self.zero, []
        for g in gens.tolist():
            if span[g]:
                continue
            taken.append(g)
            new, by = np.flatnonzero(span), np.array([g])
            while new.size:
                got = op(np.repeat(new, by.size), np.tile(by, new.size))
                new = _distinct(got[~span[got]])
                if inside is not None and not inside[new].all():
                    return None
                span[new], by = True, np.array(taken)
        return span

    def classify_subset(self, indices) -> BraceSubset:
        """Tag a subset: +-subgroup, o-subgroup, left ideal, ideal.

        A subset holding zero is closed exactly when its _span never leaves
        it, with no size cap.  As a o b = a + lambda_a(b), a lambda-stable
        subset is +-closed exactly when it is o-closed: one span settles both."""
        return self._tag(_distinct(_points(indices, self.order, "element")))

    def _tag(self, S: np.ndarray, circ_sub: bool | None = None) -> BraceSubset:
        """classify_subset of the sorted distinct S; circ_sub=True vouches that S is an o-subgroup."""
        idx = tuple(S.tolist())
        if len(idx) == self.order:
            return BraceSubset(idx, True, True, True, True)
        members = np.isin(np.arange(self.order), S)
        gens, points = np.unique(self.gidx, return_index=True)  # g_x for one x per generator
        lam_stable = all(members[self.lam_row(g)[S]].all() for g in gens)
        closed = lambda op: bool(members[self.zero]) and self._span(S, op, members) is not None
        circ_sub = closed(self.circ_many) if circ_sub is None else circ_sub
        add_sub = circ_sub if lam_stable else closed(self.add_many)
        # g_x o S = S o g_x as sets for every generator, where s o g_x = s + g_{s(x)}
        left = self.circ_many(np.repeat(gens, S.size), np.tile(S, len(gens)))
        right = self.plus[S, self.elems[S][:, points].T]
        normal = bool((np.sort(left.reshape(right.shape), axis=1) == np.sort(right, axis=1)).all())
        left_ideal = add_sub and lam_stable
        return BraceSubset(idx, add_sub, circ_sub, left_ideal, left_ideal and circ_sub and normal)

    # -- materialised tables (order <= _TABLE_MAX) ----------------------------

    def _table(self, start, i) -> np.ndarray:
        """out[a, j] = start[a] + lambda_{i[a]}(j), refused above _TABLE_MAX."""
        if self.order > _TABLE_MAX:
            raise SizeTooLarge(f"group order {self.order} exceeds table bound {_TABLE_MAX}")
        return np.ascontiguousarray(self._fold_levels(start, i).T)

    def circ_table(self) -> np.ndarray:
        return self._table(np.arange(self.order), np.arange(self.order))

    def add_table(self) -> np.ndarray:
        return self._table(np.arange(self.order), np.zeros(self.order, dtype=np.int64))

    def lam_table(self) -> np.ndarray:
        return self._table(self.zero, np.arange(self.order))


def build_perm_brace(cs: CycleSet) -> PermBrace:
    """Close the inverse rows under composition and attach the brace structure."""
    assert_valid(cs)
    return PermBrace(*closure(inverse_rows(np.array(cs.table, dtype=np.int32))))


def _last_arguments(brace: PermBrace, add: np.ndarray):
    """verify_brace's set C of last arguments as an index array, or
    slice(None) for every element (also when zero and the generators are)."""
    n, j = brace.order, np.arange(1, brace.order)
    C = _distinct(np.append(brace.gidx, brace.zero))
    if C.size >= n or C[0] < 0 or C[-1] >= n:
        return slice(None)
    pe, g = brace.parent_elem[j], brace.gidx[brace.parent_point[j]]
    # zero is the identity column, and each child is an earlier parent plus a generator in add
    spans = (add[:, brace.zero] == np.arange(n)).all() and ((0 <= pe) & (pe < j)).all() and (add[pe, g] == j).all()
    return C if spans else slice(None)


def verify_brace(brace: PermBrace, seed: int = 0) -> bool:
    """Spot-check the brace axioms on 300 sampled triples; exhaustive when the order is small.

    Checks: (G,+) abelian group with the computed negatives, lambda_a is an
    additive automorphism, lambda is multiplicative in its subscript, the
    compatibility a o (b + c) = a o b - a + a o c, and, since o is folded
    from + and lambda, that it is the composition of the rows.  Raises
    InvariantViolation on any failure.

    The exhaustive path (order <= 96) runs the four order^3 axioms with
    their last argument c over a set C (``_last_arguments``): zero and the
    distinct generators g_x when two O(order) conditions hold on the add
    table: zero is its identity column, and the BFS tree spans in it (for
    every j != zero, 0 <= parent_elem[j] < j and
    add[parent_elem[j], g_{parent_point[j]}] == j, so induction on the
    index reaches every element from zero); every element otherwise.  With
    C the generators, the verdict is that of the check over every c:
      1. Associativity: the c with (x + y) + c = x + (y + c) for all x, y
         are closed under + (Light's test), and the tree reaches every
         element from zero by adding generators.
      2. Once (G, +) is an abelian group with identity zero, c -> a o c - a
         and c -> lambda_a(c) are additive exactly when distributivity and
         lambda additivity hold for every b, and the c where they do are
         again closed under +.
      3. Then c -> lambda_{a o b}(c) and c -> lambda_a(lambda_b(c)) are both
         additive, so they agree on G once they agree on the generators.
    Each axiom runs only after the earlier ones passed, so each step's
    premises hold, and the first failing axiom is the one the check over
    every c would report.
    """
    e, n = brace.elems, brace.order
    if n <= 96:
        # int16 tables: the order^3 gathers below then move a quarter of the bytes
        add, circ, lam = (t().astype(np.int16) for t in (brace.add_table, brace.circ_table, brace.lam_table))
        if not (add == add.T).all():
            raise InvariantViolation("addition is not commutative")
        C = _last_arguments(brace, add)
        add_c = add[:, C]  # add_c[b, k] = b + C[k]; the grids below are (a, b, k)
        if not (add_c[add] == add[:, add_c]).all():
            raise InvariantViolation("addition is not associative")
        neg = brace.neg_many(np.arange(n))
        if not (add[np.arange(n), neg] == brace.zero).all():
            raise InvariantViolation("negation failed")
        rhs = add[add[circ[:, :, None], neg[:, None, None]], circ[:, None, C]]  # a o b - a + a o c
        if not (circ[:, add_c] == rhs).all():  # a o (b + c) on the left
            raise InvariantViolation("o is not distributive over + in the brace sense")
        if not (lam[:, add_c] == add[lam[:, :, None], lam[:, None, C]]).all():
            raise InvariantViolation("lambda_a is not additive")
        if not (lam[:, C][circ] == lam[:, lam[:, C]]).all():
            raise InvariantViolation("lambda is not multiplicative in the subscript")
        if not (e[circ] == e[:, e]).all():
            raise InvariantViolation("o is not the composition of the permutations")
        return True

    # one draw of shape (300, 3) yields the same values as 900 scalar draws
    a, b, c = np.random.default_rng(seed).integers(n, size=(300, 3)).T
    add, circ, lam = brace.add_many, brace.circ_many, brace.lam_many
    bc, ab, ac, neg_a = add(b, c), circ(a, b), circ(a, c), brace.neg_many(a)
    checks = [
        ("addition is not commutative", add(a, b) != add(b, a)),
        ("addition is not associative", add(add(a, b), c) != add(a, bc)),
        ("negation failed", add(a, neg_a) != brace.zero),
        ("o is not distributive over + in the brace sense", circ(a, bc) != add(add(ab, neg_a), ac)),
        ("lambda_a is not additive", lam(a, bc) != add(lam(a, b), lam(a, c))),
        ("lambda is not multiplicative in the subscript", lam(ab, c) != lam(a, lam(b, c))),
        ("o is not the composition of the permutations", (e[ab] != e[a[:, None], e[b]]).any(1)),
    ]
    bad = np.array([failed for _, failed in checks])  # (axiom, sample)
    if bad.any():
        # what a sample-by-sample loop raises: the first failing axiom of the first failing sample
        first = np.flatnonzero(bad.any(axis=0))[0]
        raise InvariantViolation(checks[int(np.argmax(bad[:, first]))][0])
    return True
