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
to i.  No fold looks up a row; ``verify_brace`` proves, from O(order * n^2)
conditions on ``plus`` and ``elems``, that the folds give a brace whose o
is the composition of the rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cycleset import _CHUNK, CycleSet, _distinct, _points, assert_valid
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


def build_perm_brace(cs: CycleSet) -> PermBrace:
    """Close the inverse rows under composition and attach the brace structure."""
    assert_valid(cs)
    return PermBrace(*closure(inverse_rows(np.array(cs.table, dtype=np.int32))))


def _permutes(t: np.ndarray, size: int) -> bool:
    """Whether every column of t is a permutation of range(size), size == len(t)."""
    if t.min() < 0 or t.max() >= size:
        return False
    seen = np.zeros(t.shape, dtype=bool)
    seen[t, np.arange(t.shape[1])] = True
    return bool(seen.all())


def _every_block(n: int, width: int, holds) -> bool:
    """holds(a) for consecutive index arrays a covering range(n), each of about _CHUNK // width."""
    rows, step = np.arange(n), max(1, _CHUNK // width)
    return all(holds(rows[s : s + step]) for s in range(0, n, step))


def verify_brace(brace: PermBrace) -> bool:
    """Prove that (G, +, o) is a left brace whose o composes the rows, and that
    the folds compute it; InvariantViolation names the first condition to fail.

    The conditions, O(order * n^2) in all, in the order they are checked:
      1. each column T_x: a -> plus[a, x] permutes the elements, and each row
         of elems permutes the points;
      2. plus[zero] == gidx and elems[zero] is the identity;
      3. the T_x commute: plus[plus[a, x], y] == plus[plus[a, y], x];
      4. the BFS tree spans: for j != zero, 0 <= parent_elem[j] < j and
         plus[parent_elem[j], parent_point[j]] == j, and its levels are
         consecutive ranges from zero's, each after its elements' parents;
      5. a o g_k = a + g_{a(k)}: elems[plus[a, a(k)]] == elems[a][elems[g_k]];
      6. the rows are distinct, and minus, if built, is the column inverse of plus.

    Why they suffice.  By 1, 3 and 4 the T_x generate an abelian group that is
    transitive, hence regular: (G, +) is an abelian group, zero is its
    identity and a + g_x = T_x(a) by 2, and each j is the sum of its word's
    generators; the level folds reach each parent before its children.  By
    5, if a and b have one row r, so have a + g_{r(k)} and b + g_{r(k)} for
    every k, hence a + c and b + c for every c: equal rows differ by an
    element whose row is the identity.  So the rows are distinct once no row
    but zero's is the identity, which is what 6 checks.  By 4 and
    5 each row is a product of generator rows, so the rows form the group the
    generators span, o is their composition and a o g_k = a + g_{a(k)}.  Let
    lambda_a(b) = -a + a o b.  Then lambda_a(b + g_{b(k)}) = -a + (a o b) o g_k
    = lambda_a(b) + g_{(a o b)(k)}; with b = zero, lambda_a(g_y) = g_{a(y)},
    so lambda_a(b + g_y) = lambda_a(b) + lambda_a(g_y) for all b and y.  The
    c with lambda_a(b + c) = lambda_a(b) + lambda_a(c) for every b are closed
    under + and hold every g_y, so they are G: each lambda_a is additive,
    which is the brace axiom.  The same induction shows that the folds compute
    +, lambda and o, and 6 makes the negatives exact.  The cycle-set law
    enters only through 3: this is the Etingof-Schedler-Soloviev / Rump
    construction read backwards (Rump, J. Algebra 307 (2007);
    Cedo, Jespers and Okninski, Comm. Math. Phys. 327 (2014)).  Conditions 3
    and 5 run over blocks of a of about _CHUNK entries, so no order^2 or n^3
    array is built.
    """
    plus, e, n, m = brace.plus, brace.elems, brace.order, brace.n_points
    if not (_permutes(plus, n) and _permutes(e.T, m)):
        raise InvariantViolation("a column of plus or a row of elems is not a permutation")
    if (plus[brace.zero] != brace.gidx).any() or (e[brace.zero] != np.arange(m)).any():
        raise InvariantViolation("zero is not the identity")
    if not _every_block(n, m * m, lambda a: ((t := plus[plus[a]]) == t.transpose(0, 2, 1)).all()):
        raise InvariantViolation("the translations do not commute")
    j, pe, pp = np.arange(1, n), brace.parent_elem[1:], brace.parent_point[1:]
    spans = ((0 <= pe) & (pe < j) & (0 <= pp) & (pp < m)).all() and (plus[pe, pp] == j).all()
    cuts = [s.start for s in brace.levels] + [n]
    levelled = cuts[:2] == [0, 1] and brace.levels == [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    if not (spans and levelled and all((brace.parent_elem[s] < s.start).all() for s in brace.levels[1:])):
        raise InvariantViolation("the spanning tree is broken")
    gens = e[brace.gidx]
    composes = lambda a: (e[plus[a[:, None], e[a]]] == e[a][:, gens]).all()
    if not _every_block(n, m * m, composes):
        raise InvariantViolation("o is not the composition of the permutations")
    if (e[1:] == np.arange(m)).all(axis=1).any():
        raise InvariantViolation("the rows of elems are not distinct")
    minus = vars(brace).get("minus")
    if minus is not None and not (
        _permutes(minus, n) and (plus[minus, np.arange(m)] == np.arange(n)[:, None]).all()
    ):
        raise InvariantViolation("minus is not the inverse of plus")
    return True
