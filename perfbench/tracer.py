"""Spans around the package's public functions, recorded from outside.

Each traced function is wrapped once and the wrapper replaces the name in
every ``cyclesets.*`` module that binds it; methods are patched on their
class.  A span is (name, start, end, parent span, item id); self time is the
span's duration minus the time of its traced children.  Spans stay in memory:
each pass's are folded into totals when it ends, and the first pass's are
kept to be written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# module -> public functions timed as layers: those a per-layer metric names,
# plus those an item calls directly (is_simple, count_formula, the brace
# subsets), so that their time counts to their module's share.  Helpers
# called only from a traced function stay unwrapped and count to it: the
# family constructors to to_cycle_set, is_indecomposable to the
# classify and oracle entry points, inverse / compose / cycle_type to
# their callers (wrapping those would measure the wrapper).
TRACED = {
    "perms": ["block_systems", "closure"],
    "cycleset": [
        "check_cycle_set",
        "retraction",
        "multipermutation_level",
        "quotients",
        "is_simple",
    ],
    "solutions": ["to_solution", "from_solution", "check_solution"],
    "families": ["to_cycle_set", "cable"],
    "counting": ["count_formula", "count_irr_by_enumeration", "count_mpl2_by_enumeration"],
    "classify": ["enumerate_classes", "classify_size_p2", "iso_cycle_sets", "automorphisms"],
    "brace": [
        "build_perm_brace",
        "verify_brace",
        "PermBrace.add",
        "PermBrace.circ",
        "PermBrace.lam",
        "PermBrace.index_of",
        "PermBrace.lam_row",
        "PermBrace.circ_row_left",
        "PermBrace.circ_row_right",
        "PermBrace.classify_subset",
        "PermBrace.socle",
        "PermBrace.fix",
        "PermBrace.block_stabilizer",
        "PermBrace.circ_center",
    ],
    "oracle": ["enumerate_cycle_sets", "canonical_form", "brute_iso", "brute_aut"],
    "cli": ["main"],
    "jsonio": ["load_document", "dump_line"],
}

# memory peaks (tracemalloc) are taken around these calls only
PEAK_TRACED = {"cycleset.check_cycle_set", "solutions.check_solution"}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.item: str | None = None
        self.spans: list = []  # this pass: (name, start, end, parent, item, self_s)
        self.first_pass: list | None = None  # kept for writing out
        self.span_count = 0
        self.peaks: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, child seconds]
        self._calls: dict[str, int] = defaultdict(int)
        self._self_s: dict[str, float] = defaultdict(float)
        self._total_s: dict[str, float] = defaultdict(float)
        self._iso_in_classify = 0

    # -- installing ----------------------------------------------------------

    def install(self):
        for mod_name, names in TRACED.items():
            module = sys.modules[f"cyclesets.{mod_name}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(f"{mod_name}.{name}", vars(cls)[meth]))
                    continue
                orig = getattr(module, name)
                wrapped = self._wrap(f"{mod_name}.{name}", orig)
                for other in [m for k, m in sys.modules.items() if k.split(".")[0] == "cyclesets"]:
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, attr, wrapped)

    def _wrap(self, name: str, fn):
        tracer = self
        peak = name in PEAK_TRACED
        on_result = {
            "brace.build_perm_brace": lambda r: tracer._count("brace.elements_built", r.order),
            "oracle.enumerate_cycle_sets": lambda r: tracer._count("oracle.nodes", r.nodes),
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            started = peak and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if started:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks[name], mb)
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.spans[idx] = (name, t0, t1, parent, tracer.item, t1 - t0 - frame[1])
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, key: str, value: float):
        self.counters[key] += value

    # -- results -------------------------------------------------------------

    def end_pass(self):
        """Fold this pass's spans into the totals; keep only the first pass's."""
        for name, t0, t1, parent, _item, own in self.spans:
            self._calls[name] += 1
            self._self_s[name] += own
            if parent == -1 or self.spans[parent][0] != name:
                self._total_s[name] += t1 - t0
            if name == "classify.iso_cycle_sets" and self._has_ancestor(parent, "classify.classify_size_p2"):
                self._iso_in_classify += 1
        self.span_count += len(self.spans)
        if self.first_pass is None:
            self.first_pass = self.spans
        self.spans = []

    def layer_table(self, passes: int, wall_s: float) -> dict[str, dict]:
        """Per-layer figures per traced pass, keyed by span name."""
        table = {}
        for mod_name, names in TRACED.items():
            for fn in names:
                key = f"{mod_name}.{fn}"
                table[key] = {
                    "calls": self._calls[key] / passes,
                    "self_s": self._self_s[key] / passes,
                    "total_s": self._total_s[key] / passes,
                }
        modules = defaultdict(float)
        for key, row in table.items():
            modules[key.split(".")[0]] += row["self_s"]
        shares = {mod: (sec / wall_s if wall_s > 0 else 0.0) for mod, sec in modules.items()}
        shares["untraced"] = max(0.0, 1.0 - sum(shares.values()))
        return {
            "functions": table,
            "shares": shares,
            "iso_in_classify": self._iso_in_classify / passes,
            "peaks_mb": dict(self.peaks),
            "counters": {k: v / passes for k, v in self.counters.items()},
        }

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx != -1:
            span = self.spans[idx]
            if span[0] == name:
                return True
            idx = span[3]
        return False

    def write_spans(self, path: str, origin: float):
        """One JSON line per span of the first traced pass."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, item, _own) in enumerate(self.first_pass or []):
                rec = {"id": i, "name": name, "start": t0 - origin, "end": t1 - origin, "parent": parent, "item": item}
                fh.write(json.dumps(rec) + "\n")
