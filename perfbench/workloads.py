"""The four workloads: seeded inputs, item lists and the check of every item.

An item is one call into the package (the library API or ``cli.main(argv)``
in-process).  Its check compares the output against ground truth built here
(see ``truth.py``), never against a second opinion from the package.  Every
call goes through a module attribute (``C.check_cycle_set``, ``C.cli.main``)
so the traced run sees it.

``quick`` shrinks each list for the smoke test; the full lists are what
the benchmark measures.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import truth

CABLE_DEFECT = (
    "families.cable takes additive multiples of sigma_x (br.sidx) instead of "
    "g_x = sigma_x^-1 (br.gidx); cable(k=2) raises InvariantViolation on "
    "irretractable members at p in {3, 5}"
)


@dataclass
class Item:
    id: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    expect: type | None = None  # exception class the call must raise
    known_defect: str | None = None
    known_raises: type | None = None  # the defect's symptom; any other failure is real

    def excused(self, exc: BaseException | None) -> bool:
        """Whether a failure is the known defect's documented symptom."""
        return self.known_defect is not None and exc is not None and type(exc) is self.known_raises


class Builder:
    """Collects items and writes their input files into the work directory."""

    def __init__(self, C, seed: int, quick: bool, work: str):
        self.C = C
        self.rng = np.random.default_rng(seed)
        self.quick = quick
        self.work = work
        self.items: list[Item] = []

    def add(self, id_, kind, call, check, **kw):
        self.items.append(Item(id_, kind, call, check, **kw))

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def write_table(self, name: str, t: np.ndarray) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "cycle_set", "table": t.tolist()}, fh)
        return path

    def relabeled(self, t: np.ndarray) -> np.ndarray:
        return truth.relabel(t, self.rng.permutation(t.shape[0]))

    def cycle_set(self, t: np.ndarray):
        return self.C.CycleSet(tuple(map(tuple, t.tolist())))

    def cli(self, id_, kind, argv, out, check):
        """A CLI item: exit code 0 and the output file passes ``check``."""
        main = self.C.cli

        def judge(rc):
            if rc != 0:
                return f"exit code {rc}"
            with open(out, encoding="utf-8") as fh:
                return check(fh.read())

        self.add(id_, kind, lambda: main.main(argv), judge)


def stratified(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """One uniform pick from each of k equal slices of range(n).

    Every index is equally likely.  Slice j uses the offset u and slice
    k-1-j the offset 1-u, so when an item's cost grows linearly with its
    index (classify's candidate scan, brute_iso's scan) the pass's total
    cost hardly depends on the seed.
    """
    edges = np.linspace(0, n, k + 1)
    u = rng.random(k)
    u[k - 1 - np.arange(k // 2)] = 1 - u[: k // 2]
    return [min(n - 1, int(lo + f * (hi - lo))) for lo, hi, f in zip(edges[:-1], edges[1:], u)]


def _need(cond: bool, msg: str) -> str | None:
    return None if cond else msg


def _same_table(got, t: np.ndarray) -> str | None:
    return _need(np.array_equal(np.asarray(got, dtype=np.int64), t), "table differs from the construction")


def _level(doc: dict):
    return {"cyclic": 1, "mpl2": 2, "irr": None}[doc["family"]]


# Every item is kept under about 0.3 s.  On a shared host whose speed drifts
# by 10-40% for minutes at a time, only an item that is short against those
# bursts and repeated many times in a run has a steady best time; the items
# of a few seconds first asked for (p = 5 braces of order 5^6, late p = 5
# candidates, full 9! scans, the complete n = 5 census) are left out.

# -- sweep --------------------------------------------------------------------
# Build-verify-count, as the release gate and scripts/sweep_validity.py run
# it.  Constructors, checkers, conversions and counting do almost all of the
# work, on two sizes: about 60 tables with n <= 25 and one with n = 121,
# whose n^3 checkers set peak_rss_mb.

P5_PIPELINE_SAMPLE = 40  # stratified over the 811 classes at p = 5


def sweep(b: Builder) -> None:
    C = b.C
    for p in (2, 3, 5) if b.quick else (2, 3, 5, 7, 11):
        cyc, mpl2, even, zero = truth.REFERENCE_COUNTS[p]

        def formula_ok(r, p=p, ref=(cyc, mpl2, even, zero)):
            got = (r.n_cyclic, r.n_mpl2, r.n_irr_even, r.n_irr_zero)
            return _need(got == ref and r.n_mpl2 == truth.mpl2_count(p), f"counts {got}")

        b.add(f"count_formula/p{p}", "count_formula", lambda p=p: C.count_formula(p), formula_ok)
        if p <= 7:  # the p = 11 recount alone takes about 5 s
            b.add(
                f"count_irr_by_enumeration/p{p}",
                "count_irr_by_enumeration",
                lambda p=p: C.count_irr_by_enumeration(p),
                lambda r, ref=(even, zero): _need(tuple(r) == ref, f"counts {r}"),
            )
        if p <= 5:  # 0.5 s at p = 7
            b.add(
                f"count_mpl2_by_enumeration/p{p}",
                "count_mpl2_by_enumeration",
                lambda p=p: C.count_mpl2_by_enumeration(p),
                lambda r, ref=mpl2: _need(r == ref, f"count {r}"),
            )

    def lines_check(expect: int, family: str | None, p: int):
        def check(text):
            docs = [json.loads(line) for line in text.splitlines()]
            ok = len(docs) == expect and len({json.dumps(d, sort_keys=True) for d in docs}) == expect
            ok = ok and all(d.get("p", d.get("m")) == p for d in docs)
            if family is not None:
                ok = ok and all(d["family"] == family for d in docs)
            return _need(ok, f"{len(docs)} documents, expected {expect} distinct")

        return check

    if not b.quick:
        out = b.path("enumerate_p7_irr.jsonl")
        irr7 = sum(truth.REFERENCE_COUNTS[7][2:])
        b.cli("cli.enumerate/p7/irr", "cli.enumerate", ["enumerate", "--p", "7", "--family", "irr", "--out", out], out, lines_check(irr7, "irr", 7))
    for p in (3, 5):
        total = sum(truth.REFERENCE_COUNTS[p])
        out = b.path(f"enumerate_p{p}.jsonl")
        b.cli(f"cli.enumerate/p{p}", "cli.enumerate", ["enumerate", "--p", str(p), "--out", out], out, lines_check(total, None, p))
        out = b.path(f"count_p{p}.jsonl")
        cyc, mpl2, even, zero = truth.REFERENCE_COUNTS[p]
        want = {"p": p, "n_cyclic": cyc, "n_mpl2": mpl2, "n_irr_even": even, "n_irr_zero": zero, "n_irr": even + zero, "total": total}
        b.cli(f"cli.count/p{p}", "cli.count", ["count", "--p", str(p), "--out", out], out, lambda text, w=want: _need(json.loads(text) == w, "count report differs"))

    for p in (2, 3) if b.quick else (2, 3, 5):
        classes = C.enumerate_classes(p)
        picks = stratified(b.rng, len(classes), P5_PIPELINE_SAMPLE) if p == 5 else range(len(classes))
        for i in picks:
            doc = C.params_to_dict(classes[i])
            simple = doc["family"] == "irr" and p <= 3
            _pipeline(b, f"p{p}/{i}", classes[i], truth.params_table(doc), _level(doc), simple)

    # an irretractable member at p = 11 with a seeded even, non-constant defect map
    p = 11
    half = [int(v) for v in b.rng.integers(0, p, p // 2 + 1)]
    if len(set(half)) == 1:
        half[1] = (half[0] + 1) % p
    phi = [half[min(a, p - a)] for a in range(p)]
    doc = {"family": "irr", "p": p, "phi": phi, "alpha": 1}
    t = truth.params_table(doc)
    _pipeline(b, "p11/irr", C.IrrParams(p, tuple(phi), 1), t, None, False)
    fin = b.write_table("verify_p11.json", b.relabeled(t))
    out = b.path("verify_p11.out")
    b.cli(
        "cli.verify/p11/irr",
        "cli.verify",
        ["verify", "--in", fin, "--out", out],
        out,
        lambda text: _need(json.loads(text)["ok"] is True and json.loads(text)["n"] == p * p, "verify report not ok"),
    )


def _pipeline(b: Builder, tag: str, q, t: np.ndarray, level, simple: bool) -> None:
    """Build, check, convert to a solution and back, retract."""
    C = b.C
    st: dict = {}

    def build():
        st["cs"] = C.to_cycle_set(q)
        return st["cs"]

    def to_solution():
        st["sol"] = C.to_solution(st["cs"])
        return st["sol"]

    def solution_ok(sol):
        lam, rho = truth.solution_of(t)
        return _need(np.array_equal(sol.lam, lam) and np.array_equal(sol.rho, rho), "solution differs")

    b.add(f"{tag}/build", "to_cycle_set", build, lambda cs: _same_table(cs.table, t))
    b.add(f"{tag}/check_cycle_set", "check_cycle_set", lambda: C.check_cycle_set(st["cs"]), lambda r: _need(r.ok, "report not ok"))
    b.add(f"{tag}/to_solution", "to_solution", to_solution, solution_ok)
    b.add(f"{tag}/check_solution", "check_solution", lambda: C.check_solution(st["sol"]), lambda r: _need(r.ok, "report not ok"))
    b.add(f"{tag}/from_solution", "from_solution", lambda: C.from_solution(st["sol"]), lambda cs: _same_table(cs.table, t))
    b.add(
        f"{tag}/multipermutation_level",
        "multipermutation_level",
        lambda: C.multipermutation_level(st["cs"]),
        lambda r: _need(r == level, f"level {r}, expected {level}"),
    )
    if simple:
        b.add(f"{tag}/is_simple", "is_simple", lambda: C.is_simple(st["cs"]), lambda r: _need(r is True, "not simple"))


# -- classify -----------------------------------------------------------------
# The CLI classify / iso / aut jobs on seeded relabelings.  The candidate scan
# and the iso search dominate; tables are small and read entry by entry, so a
# table representation that slows scalar access shows here.  Level-two
# members at p = 7 are left out: each takes more than 300 s today.

# A level-two class at p = 5 costs about 2.7 ms per candidate ahead of it;
# two are stratified over the first P5_MPL2_WINDOW candidates.
P5_MPL2_SAMPLE = 2
P5_MPL2_WINDOW = 80
# At p = 7 the cost of an irretractable class swings between 0.1 s and 2 s
# with its place in the candidate list, with no trend a stratified sample
# could follow, so the class is fixed (the first; mostly the alpha recovery
# through block_systems and closure) and only its relabeling is seeded.
P7_IRR_POSITION = 0
# A pass sorts into groups: about 70 items of 3-5 ms (the p = 5 iso pairs,
# most p = 3 classify items) hold item_p50_ms, the 30 p = 7 iso and aut
# items of 10-14 ms hold item_p90_ms, and the p = 5 irretractable, level-two
# and p = 7 classify items lie above.
ISO_PAIRS = {5: 30, 7: 10}  # per kind (isomorphic, distinct)
AUT_MEMBERS = {5: 6, 7: 10}


def classify(b: Builder) -> None:
    C, rng = b.C, b.rng
    for i, q in enumerate(C.enumerate_classes(3)):
        _classify_item(b, f"p3/{i}", C.params_to_dict(q))
    cl5 = [C.params_to_dict(q) for q in C.enumerate_classes(5)]
    mpl5 = [d for d in cl5 if d["family"] == "mpl2"]
    irr5 = [d for d in cl5 if d["family"] == "irr"]
    irr7 = [C.params_to_dict(q) for q in C.enumerate_classes(7, family="irr")]
    _classify_item(b, "p5/cyclic", cl5[0])
    _classify_item(b, "p5/irr", irr5[int(rng.integers(len(irr5)))])
    for j in stratified(rng, P5_MPL2_WINDOW, 1 if b.quick else P5_MPL2_SAMPLE):
        _classify_item(b, f"p5/mpl2/{j}", mpl5[j])
    if not b.quick:
        _classify_item(b, f"p7/irr/{P7_IRR_POSITION}", irr7[P7_IRR_POSITION])

    for p, pool in ((5, cl5[1:]), (7, irr7)):
        for k in range(3 if b.quick else ISO_PAIRS[p]):
            doc = pool[int(rng.integers(len(pool)))]
            t = truth.params_table(doc)
            _iso_item(b, f"p{p}/same/{k}", b.relabeled(t), b.relabeled(t), True)
            i, j = rng.choice(len(pool), size=2, replace=False)
            ta, tb = truth.params_table(pool[i]), truth.params_table(pool[j])
            _iso_item(b, f"p{p}/distinct/{k}", b.relabeled(ta), b.relabeled(tb), False)

    for p, pool in ((5, irr5), (7, irr7)):
        pool = [d for d in pool if d["alpha"] == 1]
        for k in range(3 if b.quick else AUT_MEMBERS[p]):
            doc = pool[int(rng.integers(len(pool)))]
            t = b.relabeled(truth.params_table(doc))
            expect = p * len(truth.phi_stabilizer(p, doc["phi"]))
            fin = b.write_table(f"aut_{p}_{k}.json", t)
            out = b.path(f"aut_{p}_{k}.out")

            def aut_ok(text, t=t, expect=expect):
                doc = json.loads(text)
                maps = [tuple(m) for m in doc["maps"]]
                ok = doc["count"] == expect == len(set(maps))
                return _need(ok and all(truth.is_morphism(t, t, m) for m in maps), f"{doc['count']} automorphisms, expected {expect}")

            b.cli(f"cli.aut/p{p}/{k}", "cli.aut", ["aut", "--in", fin, "--out", out], out, aut_ok)

    # out of scope: the exact exception class is the expected outcome
    not_square = b.cycle_set(b.relabeled(truth.cyclic_table(12)))
    decomposable = b.cycle_set(b.relabeled(truth.union_table(truth.cyclic_table(16), truth.cyclic_table(9))))
    for name, cs, exc in (
        ("size12", not_square, C.NotSizePSquared),
        ("decomposable25", decomposable, C.NotIndecomposable),
    ):
        b.add(f"classify/out_of_scope/{name}", "classify.out_of_scope", lambda cs=cs: C.classify_size_p2(cs), lambda r: "returned a result", expect=exc)


def _classify_item(b: Builder, tag: str, doc: dict) -> None:
    fin = b.write_table(f"classify_{tag.replace('/', '_')}.json", b.relabeled(truth.params_table(doc)))
    out = fin[:-5] + ".out"
    kind = "cli.classify." + tag.split("/")[0]
    b.cli(f"cli.classify/{tag}", kind, ["classify", "--in", fin, "--out", out], out, lambda text: _need(json.loads(text) == doc, f"classified as {text.strip()}"))


def _iso_item(b: Builder, tag: str, ta: np.ndarray, tb: np.ndarray, same: bool) -> None:
    name = tag.replace("/", "_")
    fa, fb = b.write_table(f"iso_{name}_a.json", ta), b.write_table(f"iso_{name}_b.json", tb)
    out = b.path(f"iso_{name}.out")

    def check(text):
        doc = json.loads(text)
        if not same:
            return _need(doc == {"isomorphic": False, "map": None}, "distinct classes reported isomorphic")
        return _need(doc["isomorphic"] is True and truth.is_morphism(ta, tb, doc["map"]), "no valid isomorphism returned")

    b.cli(f"cli.iso/{tag}", "cli.iso", ["iso", "--in", fa, fb, "--out", out], out, check)


# -- brace --------------------------------------------------------------------
# The permutation brace geometry of c07/c08.  Element lookup and closure are
# most of c07's time and no other workload touches brace.py.  Vectorised row
# maps (lam_row, circ_row_*) sit beside scalar word folds (add, circ, lam),
# so a kernel that speeds one and slows the other shows.
#
# Known defect, surfaced and not fixed here: see CABLE_DEFECT.  The cable(k=2)
# items stay in the list, so brace's failure count is non-zero and steady.

SCALAR_BATCH = 30


def brace(b: Builder) -> None:
    C, rng = b.C, b.rng
    members = []
    for p in (2,) if b.quick else (2, 3):
        members += [(p, C.params_to_dict(q)) for q in C.enumerate_classes(p)]
    if not b.quick:
        # the five irretractable classes at p = 5 with a quadratic defect map
        # have row groups of order 5^3; the other 25 have order 5^6, and their
        # items take 0.3-1 s each
        irr5 = [C.params_to_dict(q) for q in C.enumerate_classes(5, family="irr")]
        pool = [d for d in irr5 if truth.is_quadratic(5, d["phi"])]
        members.append((5, pool[int(rng.integers(len(pool)))]))
    for i, (p, doc) in enumerate(members):
        _brace_items(b, f"p{p}/{i}", p, doc)


def _brace_items(b: Builder, tag: str, p: int, doc: dict) -> None:
    C, rng = b.C, b.rng
    t = truth.params_table(doc)
    n = t.shape[0]
    cs = b.cycle_set(t)
    irr = doc["family"] == "irr"
    inv_rows = np.argsort(t, axis=1)
    inv_tuples = [tuple(r) for r in inv_rows.tolist()]
    row_class = np.unique(t, axis=0, return_inverse=True)[1].reshape(-1)
    if doc["family"] == "cyclic":
        block_of = np.arange(n) % p
    else:
        block_of = np.arange(n) // p
    system = [tuple(np.flatnonzero(block_of == k).tolist()) for k in range(p)]
    pairs = rng.random((SCALAR_BATCH, 2))
    st: dict = {}
    memo: dict = {}

    def br():
        return st["br"]

    def expected_order():
        if "order" not in memo:
            memo["order"] = truth.group_order(t)
        return memo["order"]

    def build():
        st["br"] = C.build_perm_brace(cs)
        return st["br"]

    def build_ok(r):
        elems = np.asarray(r.elems)
        ok = r.order == expected_order() and np.unique(elems, axis=0).shape[0] == r.order
        return _need(ok, f"order {r.order}, expected {expected_order()}")

    def indices_of(mask):
        return tuple(np.flatnonzero(mask).tolist())

    def socle_ok(sub):
        e = np.asarray(br().elems)
        want = indices_of((row_class[e] == row_class[None, :]).all(axis=1))
        return _need(sub.indices == want and (not irr or want == (br().zero,)), "socle differs")

    def fix_ok(sub):
        if "fix" not in memo:
            memo["fix"] = truth.brace_fix(t)
        e = np.asarray(br().elems)
        got = {tuple(e[i].tolist()) for i in sub.indices}
        st["fix"] = sub.indices
        return _need(len(got) == len(sub.indices) and got == memo["fix"], f"fix has {len(got)} elements, expected {len(memo['fix'])}")

    def stab_ok(sub):
        e = np.asarray(br().elems)
        want = indices_of((block_of[e] == block_of[None, :]).all(axis=1))
        ok = sub.indices == want and (not irr or set(st.get("fix", ())) & set(want) == {br().zero})
        return _need(ok, "block stabiliser differs")

    def center_ok(sub):
        e = np.asarray(br().elems).astype(np.int64)
        mask = np.ones(e.shape[0], dtype=bool)
        for g in inv_rows:
            mask &= (e[:, g] == g[e]).all(axis=1)
        return _need(sub.indices == indices_of(mask), "circle centre differs")

    def index_ok(idx):
        e = np.asarray(br().elems)
        return _need(np.array_equal(e[np.asarray(idx)], inv_rows), "index_of maps a row elsewhere")

    def scalar_batch():
        r = br()
        out = []
        for u, v in pairs:
            i, j = int(u * r.order), int(v * r.order)
            c = r.circ(i, j)
            lam = r.lam(i, j)
            out.append((i, j, c, r.add(i, lam)))
        return out

    def scalar_ok(out):
        e = np.asarray(br().elems)
        # a o b = a + lambda_a(b), and o is composition of the point maps
        ok = all(np.array_equal(e[c], e[i][e[j]]) and s == c for i, j, c, s in out)
        return _need(ok, "scalar add/circ/lam disagree with composition")

    b.add(f"{tag}/build_perm_brace", "build_perm_brace", build, build_ok)
    b.add(f"{tag}/socle", "socle", lambda: br().socle(), socle_ok)
    b.add(f"{tag}/fix", "fix", lambda: br().fix(), fix_ok)
    b.add(f"{tag}/block_stabilizer", "block_stabilizer", lambda: br().block_stabilizer(system), stab_ok)
    b.add(f"{tag}/circ_center", "circ_center", lambda: br().circ_center(), center_ok)
    b.add(f"{tag}/verify_brace", "verify_brace", lambda: C.verify_brace(br()), lambda r: _need(r is True, "verify_brace returned False"))
    b.add(f"{tag}/index_of", "index_of", lambda: [br().index_of(g) for g in inv_tuples], index_ok)
    b.add(f"{tag}/scalar", "scalar_add_circ_lam", scalar_batch, scalar_ok)
    b.add(f"{tag}/cable_identity", "cable_identity", lambda: C.cable(cs, br().order + 1), lambda r: _same_table(r.table, t))
    b.add(
        f"{tag}/cable2",
        "cable2",
        lambda: C.cable(cs, 2),
        lambda r: _need(truth.is_cycle_set(np.asarray(r.table)), "cabled table is not a cycle set"),
        known_defect=CABLE_DEFECT if irr and p in (3, 5) else None,
        known_raises=C.InvariantViolation,
    )


# -- census -------------------------------------------------------------------
# The CLI oracle job and the brute-force audits.  oracle.py is the only layer
# no other workload exercises.  Only complete censuses are timed (n <= 4):
# the n = 5 census takes about 45 s, and a search cut off after a fixed
# number of nodes would time the nodes, not the census, so a search that
# visits fewer but dearer nodes would read as slower.
#
# brute_iso on a relabeled pair stops at the first isomorphism, whose rank
# among the n! maps in lexicographic order depends on the seed; a full scan
# (distinct pairs, brute_aut) costs the same for every seed.  So a pass sorts
# into four groups, and item_p50_ms and item_p90_ms each sit well inside a
# group of full scans:
#   28 cheap items of about 3 ms or less: the oracle censuses for n <= 3,
#      brute_iso on relabeled pairs at n = 8 (relabelings from the first
#      quarter of the 8!) and at n = 9 (from the first 1/160 of the 9!);
#   54 full 7! scans of 3-4 ms that hold item_p50_ms: brute_aut at n = 7;
#   16 full 8! scans of about 28 ms that hold item_p90_ms: brute_iso on
#      distinct pairs and brute_aut at n = 8;
#   4 dearer items: the n = 4 censuses and a canonical_form pair at n = 8.
# Distinct pairs, brute_aut and canonical_form at n = 9 scan all 9!
# (0.4-0.9 s each) and are left out.
N9_RELABEL_PAIRS = 6
N9_RANK_SHARE = 160
N8_RELABEL_PAIRS = 16
N8_RANK_SHARE = 4
N8_DISTINCT_PAIRS = 10
N8_AUT = 6
N8_CANON_PAIRS = 1
N7_AUT = 54


def census(b: Builder) -> None:
    C, quick = b.C, b.quick
    for n in (1, 2, 3) if quick else (1, 2, 3, 4):
        for indec in (False, True):
            want = (truth.CENSUS_INDECOMPOSABLE if indec else truth.CENSUS_ALL)[n]
            out = b.path(f"oracle_{n}_{int(indec)}.jsonl")
            argv = ["oracle", "--n", str(n), "--out", out] + (["--indecomposable"] if indec else [])
            b.cli(f"cli.oracle/n{n}/{'indecomposable' if indec else 'all'}", "cli.oracle", argv, out, _oracle_check(want, indec))

    n9 = [truth.params_table(C.params_to_dict(q)) for q in C.enumerate_classes(3)]
    n8 = _size_eight_tables()
    scale = 4 if quick else 1
    if not quick:
        _brute_items(b, 9, n9, N9_RELABEL_PAIRS, 0, 0, 0, math.factorial(9) // N9_RANK_SHARE)
    _brute_items(b, 8, n8, N8_RELABEL_PAIRS // scale, N8_DISTINCT_PAIRS // scale, N8_AUT // scale, N8_CANON_PAIRS // scale, math.factorial(8) // N8_RANK_SHARE)
    _brute_items(b, 7, _size_seven_tables(), 0, 0, N7_AUT // scale, 0, 0)


def _brute_items(b, n, pool, rel, dis, aut, canon, ranks) -> None:
    C, rng = b.C, b.rng
    # the relabelling's rank in lexicographic order bounds how far brute_iso
    # scans, so ranks are stratified like classify's candidate positions;
    # tables are taken in turn, so every seed scans the same mix of them
    for k, rank in enumerate(stratified(rng, ranks, rel)):
        t = b.relabeled(pool[k % len(pool)])
        perm = np.array(truth.unrank_perm(rank, n))
        tb = truth.relabel(t, perm)
        a, bb = b.cycle_set(t), b.cycle_set(tb)
        b.add(
            f"brute_iso/n{n}/same/{k}",
            f"brute_iso.n{n}.same",
            lambda a=a, bb=bb: C.brute_iso(a, bb),
            lambda r, t=t, tb=tb: _need(r is not None and truth.is_morphism(t, tb, r), "no valid isomorphism returned"),
        )
    for k in range(dis):
        i, j = _distinct_pair(rng, pool)
        a, bb = b.cycle_set(b.relabeled(pool[i])), b.cycle_set(b.relabeled(pool[j]))
        b.add(f"brute_iso/n{n}/distinct/{k}", f"brute_iso.n{n}.distinct", lambda a=a, bb=bb: C.brute_iso(a, bb), lambda r: _need(r is None, "distinct classes reported isomorphic"))
    for k in range(aut):
        t = b.relabeled(pool[k % len(pool)])
        cs = b.cycle_set(t)
        memo: dict = {}

        def aut_ok(r, t=t, memo=memo):
            if "auts" not in memo:
                memo["auts"] = truth.automorphisms(t)
            perms = [tuple(x) for x in r]
            ok = len(perms) == len(set(perms)) and set(perms) == memo["auts"]
            return _need(ok, f"{len(perms)} maps, expected the {len(memo['auts'])} automorphisms")

        b.add(f"brute_aut/n{n}/{k}", f"brute_aut.n{n}", lambda cs=cs: C.brute_aut(cs), aut_ok)
    for k in range(canon):
        t = pool[int(rng.integers(len(pool)))]
        memo: dict = {}

        def canon_ok(r, t=t, memo=memo):
            # both relabellings of t share t's least relabelling
            if "form" not in memo:
                memo["form"] = truth.least_relabelling(t)
            return _need(r.table == memo["form"], "not the least relabelling")

        for side in "ab":
            cs = b.cycle_set(b.relabeled(t))
            b.add(f"canonical_form/n{n}/{k}/{side}", f"canonical_form.n{n}", lambda cs=cs: C.canonical_form(cs), canon_ok)


def _distinct_pair(rng, pool) -> tuple[int, int]:
    """Two members that differ in an invariant, hence are not isomorphic."""
    while True:
        i, j = (int(v) for v in rng.choice(len(pool), size=2, replace=False))
        if _invariant(pool[i]) != _invariant(pool[j]):
            return i, j


def _invariant(t: np.ndarray) -> tuple:
    """Relabelling-invariant: sorted row cycle types, diagonal cycle type, row count."""

    def cycle_type(perm):
        seen, out = set(), []
        for s in range(len(perm)):
            if s not in seen:
                k, x = 0, s
                while x not in seen:
                    seen.add(x)
                    x = perm[x]
                    k += 1
                out.append(k)
        return tuple(sorted(out))

    rows = sorted(cycle_type(r) for r in t.tolist())
    diag = cycle_type(np.diag(t).tolist())
    return (tuple(rows), diag, np.unique(t, axis=0).shape[0])


def _size_seven_tables() -> list[np.ndarray]:
    """Cycle sets of size 7 whose brute_aut scans cost about the same."""
    cyc, union = truth.cyclic_table, truth.union_table
    return [
        cyc(7),
        union(cyc(4), cyc(3)),
        union(cyc(5), cyc(2)),
        union(cyc(6), cyc(1)),
        union(cyc(3), cyc(2), cyc(2)),
        union(cyc(4), cyc(2), cyc(1)),
        union(truth.mpl2_table(2, 2, (0, 1), 0), cyc(3)),
    ]


def _size_eight_tables() -> list[np.ndarray]:
    """Level-two cycle sets of size 8: Z_2 x Z_4 and Z_4 x Z_2, every (f, s)."""
    out = [truth.cyclic_table(8)]
    for f1 in range(1, 4):
        for s in range(4):
            out.append(truth.mpl2_table(2, 4, (0, f1), s))
    for f in range(1, 8):
        for s in range(2):
            out.append(truth.mpl2_table(4, 2, (0, f & 1, (f >> 1) & 1, (f >> 2) & 1), s))
    return out


def _oracle_check(want: int, indec: bool):
    def check(text):
        docs = [json.loads(line) for line in text.splitlines()]
        summary, tables = docs[-1], [np.asarray(d["table"]) for d in docs[:-1]]
        if summary.get("complete") is not True or summary.get("classes") != want:
            return f"summary {summary}, expected {want} classes"
        return _census_tables_ok(tables, want, indec)

    return check


def _census_tables_ok(tables, want: int, indec: bool) -> str | None:
    """``want`` valid, pairwise non-isomorphic tables (by least relabelling)."""
    if len(tables) != want:
        return f"{len(tables)} classes, expected {want}"
    forms = set()
    for t in tables:
        if not truth.is_cycle_set(t) or (indec and not truth.is_transitive(t)):
            return "an invalid or decomposable table"
        n = t.shape[0]
        forms.add(min(truth.relabel(t, np.array(p)).tobytes() for p in itertools.permutations(range(n))))
    return _need(len(forms) == len(tables), "two classes are isomorphic")


WORKLOADS = {"sweep": sweep, "classify": classify, "brace": brace, "census": census}
