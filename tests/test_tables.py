"""Every table is built as an integer array and frozen by one validator.

The array-built constructors and transforms are compared here with
per-entry references, written out loop by loop from their defining
formulas, and the validator shared by CycleSet and Solution is fed
malformed tables of every kind.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclesets import (
    CycleSet,
    InducedTableIllDefined,
    Solution,
    automorphisms,
    co_params,
    co_simple_solution,
    deform,
    enumerate_classes,
    from_solution,
    irr_cycle_set,
    mpl2_cycle_set,
    phi_stabilizer,
    relabel,
    retraction,
    to_cycle_set,
    to_solution,
)
from cyclesets.cycleset import _induced_table

# -- per-entry references -------------------------------------------------------


def _inverse(row):
    out = [0] * len(row)
    for i, x in enumerate(row):
        out[x] = i
    return tuple(out)


def irr_reference(p, f, alpha):
    """(a,x)*(b,y) = (alpha*(b+x), alpha*(y+f(b-a))), point (a, x) = a*p + x."""
    table = []
    for a in range(p):
        for x in range(p):
            row = []
            for b in range(p):
                for y in range(p):
                    first = alpha * (b + x) % p
                    row.append(first * p + alpha * (y + f[(b - a) % p]) % p)
            table.append(tuple(row))
    return tuple(table)


def mpl2_reference(m, invariants, phi, s):
    """(a,x)*(b,y) = (b+1, y + [b=0]*s + f(b-a)) on Z_m x A, A in mixed radix
    with the last digit fastest."""

    def element(i):
        digits = []
        for d in reversed(invariants):
            i, r = divmod(i, d)
            digits.append(r)
        return digits[::-1]

    def index(digits):
        out = 0
        for v, d in zip(digits, invariants):
            out = out * d + v % d
        return out

    size = int(np.prod(invariants))
    table = []
    for a in range(m):
        for _ in range(size):
            row = []
            for b in range(m):
                for y in range(size):
                    shift = [u + (v if b == 0 else 0) for u, v in zip(phi[(b - a) % m], s)]
                    z = [u + v for u, v in zip(element(y), shift)]
                    row.append((b + 1) % m * size + index(z))
            table.append(tuple(row))
    return tuple(table)


def co_simple_lam_reference(p, f, t):
    """lam_{(i,j)}(k,l) = (t*k+j, t*(l - f(t*k+j-i)))."""
    lam = []
    for i in range(p):
        for j in range(p):
            row = []
            for k in range(p):
                first = (t * k + j) % p
                for l in range(p):
                    row.append(first * p + t * (l - f[(first - i) % p]) % p)
            lam.append(tuple(row))
    return tuple(lam)


def solution_reference(table):
    """lam_x = (x*(-))^{-1}; rho_y(x) = lam_x(y) * x."""
    n = len(table)
    lam = tuple(_inverse(row) for row in table)
    rho = tuple(tuple(table[lam[x][y]][x] for x in range(n)) for y in range(n))
    return lam, rho


def relabel_reference(table, perm):
    n = len(table)
    inv = _inverse(perm)
    return tuple(tuple(perm[table[inv[x]][inv[y]]] for y in range(n)) for x in range(n))


def induced_reference(table, cls):
    """The induced table, blocks represented by their least points, or the
    first (x, y) at which it is ill defined."""
    n = len(table)
    reps = [cls.index(i) for i in range(max(cls) + 1)]
    induced = [[cls[table[u][v]] for v in reps] for u in reps]
    for x in range(n):
        for y in range(n):
            if cls[table[x][y]] != induced[cls[x]][cls[y]]:
                return (cls[x], cls[y]), (x, y)
    return tuple(map(tuple, induced)), tuple(cls)


def retraction_reference(table):
    """Points with equal rows fused, classes numbered by first appearance."""
    first: dict = {}
    cls = [first.setdefault(row, len(first)) for row in table]
    return induced_reference(table, cls)


# -- strategies -----------------------------------------------------------------

MEMBERS = [to_cycle_set(q) for p in (2, 3) for q in enumerate_classes(p)]


@st.composite
def irr_params(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    half = draw(st.lists(st.integers(0, p - 1), min_size=p // 2 + 1, max_size=p // 2 + 1))
    f = tuple(half[min(a, p - a)] for a in range(p))
    assume(len(set(f)) > 1)
    return p, f, draw(st.sampled_from(phi_stabilizer(p, f)))


@st.composite
def mpl2_args(draw):
    invariants = draw(st.sampled_from([(2,), (3,), (4,), (5,), (2, 2), (2, 3), (3, 3), (2, 4)]))
    m = draw(st.integers(2, 4))
    element = st.tuples(*(st.integers(0, d - 1) for d in invariants))
    phi = [tuple(0 for _ in invariants)] + draw(st.lists(element, min_size=m - 1, max_size=m - 1))
    assume(any(any(v) for v in phi))
    return m, invariants, phi, draw(element)


@st.composite
def relabeled_members(draw):
    cs = draw(st.sampled_from(MEMBERS))
    perm = tuple(draw(st.permutations(range(cs.n))))
    return relabel(cs, perm)


# -- constructors -----------------------------------------------------------------


@given(irr_params())
@settings(max_examples=60, deadline=None)
def test_irr_table_matches_the_formula(params):
    p, f, alpha = params
    assert irr_cycle_set(p, f, alpha).table == irr_reference(p, f, alpha)


@given(mpl2_args())
@settings(max_examples=60, deadline=None)
def test_mpl2_table_matches_the_formula_over_rank_one_and_two(args):
    m, invariants, phi, s = args
    assert mpl2_cycle_set(m, invariants, phi, s).table == mpl2_reference(m, invariants, phi, s)


@given(irr_params())
@settings(max_examples=40, deadline=None)
def test_co_simple_lam_matches_the_formula(params):
    p, f, t = params[0], *co_params(*params)
    assert co_simple_solution(p, f, t).lam == co_simple_lam_reference(p, f, t)


# -- conversions and transforms -------------------------------------------------------


@given(relabeled_members())
@settings(max_examples=60, deadline=None)
def test_solution_conversions_match_the_formula(cs):
    sol = to_solution(cs)
    assert (sol.lam, sol.rho) == solution_reference(cs.table)
    assert from_solution(sol).table == tuple(_inverse(row) for row in sol.lam) == cs.table


@given(st.sampled_from(MEMBERS), st.data())
@settings(max_examples=60, deadline=None)
def test_relabel_matches_the_formula(cs, data):
    perm = tuple(data.draw(st.permutations(range(cs.n))))
    assert relabel(cs, perm).table == relabel_reference(cs.table, perm)


@given(st.sampled_from(MEMBERS), st.data())
@settings(max_examples=40, deadline=None)
def test_deform_matches_the_formula(cs, data):
    perm = data.draw(st.sampled_from(automorphisms(cs)))
    assert deform(cs, perm).table == tuple(tuple(perm[v] for v in row) for row in cs.table)


@given(relabeled_members())
@settings(max_examples=60, deadline=None)
def test_retraction_keeps_class_order_and_projection(cs):
    ret, proj = retraction(cs)
    assert (ret.table, proj) == retraction_reference(cs.table)


@given(relabeled_members(), st.data())
@settings(max_examples=80, deadline=None)
def test_induced_table_reports_the_first_witness(cs, data):
    labels = data.draw(st.lists(st.integers(0, 3), min_size=cs.n, max_size=cs.n))
    cls = [sorted(set(labels)).index(v) for v in labels]
    want = induced_reference(cs.table, cls)
    try:
        got, proj = _induced_table(cs, cls)
    except InducedTableIllDefined as exc:
        assert (exc.block, exc.witness) == want
    else:
        assert (got.table, proj) == want


# -- the validator ----------------------------------------------------------------------

GOOD = ((1, 0), (0, 1))
MALFORMED = [
    ((0, 1), (0,)),  # ragged
    ((0, 1),),  # not square
    (0, 1),  # one row, not a table
    ((0, -1), (1, 0)),  # negative
    ((0, 2), (1, 0)),  # out of range
    ((0, 1.0), (1, 0)),  # float
    ((1.5, 0), (1, 0)),
    ((True, False), (False, True)),  # bool
    ((0, True), (1, 0)),  # a bool among ints, which numpy reads as an int
    np.array([[0, 1], [1, 0]], dtype=float),
    np.array([[1, 0], [0, 1]], dtype=bool),
    np.array([[1, 0], [0, None]], dtype=object),
    [[np.True_, 0], [0, 1]],  # a numpy bool among ints, which numpy also reads as an int
]


@pytest.mark.parametrize("rows", MALFORMED)
def test_malformed_tables_are_refused_by_both_types(rows):
    with pytest.raises(ValueError, match="^malformed cycle set table$"):
        CycleSet(rows)
    with pytest.raises(ValueError, match="^malformed solution table$"):
        Solution(rows, GOOD)
    with pytest.raises(ValueError, match="malformed solution table|same size"):
        Solution(GOOD, rows)


@pytest.mark.parametrize("empty", [(), [], np.zeros((0, 0), dtype=int)])
def test_empty_tables_are_refused_by_both_types(empty):
    with pytest.raises(ValueError, match="a cycle set needs at least one point"):
        CycleSet(empty)
    with pytest.raises(ValueError, match="a solution needs at least one point"):
        Solution(empty, empty)


def test_integer_arrays_are_stored_as_tuples_of_python_ints():
    for dtype in (np.int8, np.int32, np.int64, np.uint16):
        cs = CycleSet(np.array(GOOD, dtype=dtype))
        sol = Solution(np.array(GOOD, dtype=dtype), [list(row) for row in GOOD])
        assert cs.table == sol.lam == sol.rho == GOOD
        assert all(type(v) is int for row in cs.table + sol.lam for v in row)
