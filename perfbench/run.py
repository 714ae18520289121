"""Benchmark of the cyclesets package: one workload per process.

    python3 perfbench/run.py --workload {sweep,classify,brace,census} \\
        --seed N --seconds S --trace {0,1} [--quick]

Run from the repository root.  The package is imported from ``src/``.  The
workload's items are generated from the seed (set-up), then run in passes,
as many as fit in ``--seconds`` and at least one.  Every item's output is
checked against ground truth the benchmark builds itself.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is a report with the environment, per-kind latencies and failures.  Reports
and the traced run's spans are also written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 7
# timed in a fresh interpreter, once per set-up repeat
IMPORT_PROBE = "import time; t0 = time.perf_counter(); import numpy, cyclesets.cli; print(time.perf_counter() - t0)"

# Host speed.  The shared host this was built on runs the same code up to
# 1.8x slower for stretches of seconds to minutes: slower execution, not
# time taken from the VM.  A run's best pass escapes a short stretch but
# not one that lasts the whole run.  So the run also times a fixed
# reference loop (benchmark code that calls nothing in the package)
# REFERENCE_SAMPLES times before the first pass and after each pass.  Its
# fastest time in the run over REFERENCE_NOMINAL_S, the loop's time on a
# quiet 2-vCPU Xeon VM, is the host's slowdown, and the end-to-end timings,
# set-up included, are divided by it.  The report keeps the unscaled
# figures and the slowdown.
REFERENCE_NOMINAL_S = 0.6e-3
REFERENCE_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_ratio": "1",
}

# span name -> figures reported for it in the traced run
LAYER_FIELDS = {
    "perms.block_systems": ("self_s",),
    "perms.closure": ("self_s",),
    "cycleset.check_cycle_set": ("calls", "self_s", "peak_mb"),
    "cycleset.retraction": ("self_s",),
    "cycleset.multipermutation_level": ("self_s",),
    "cycleset.quotients": ("self_s",),
    "solutions.to_solution": ("self_s",),
    "solutions.from_solution": ("self_s",),
    "solutions.check_solution": ("self_s", "peak_mb"),
    "families.to_cycle_set": ("calls", "self_s"),
    "families.cable": ("self_s",),
    "counting.count_irr_by_enumeration": ("self_s",),
    "counting.count_mpl2_by_enumeration": ("self_s",),
    "classify.enumerate_classes": ("self_s",),
    "classify.classify_size_p2": ("calls", "self_s"),
    "classify.iso_cycle_sets": ("calls", "self_s"),
    "classify.automorphisms": ("self_s",),
    "brace.build_perm_brace": ("self_s",),
    "brace.PermBrace.lam_row": ("calls", "self_s"),
    "brace.PermBrace.circ_row_left": ("calls", "self_s"),
    "brace.PermBrace.circ_row_right": ("calls", "self_s"),
    "brace.PermBrace.classify_subset": ("calls", "self_s"),
    "brace.verify_brace": ("self_s",),
    "brace.PermBrace.add": ("calls", "self_s"),
    "brace.PermBrace.circ": ("calls", "self_s"),
    "brace.PermBrace.lam": ("calls", "self_s"),
    "brace.PermBrace.index_of": ("calls", "self_s"),
    "oracle.enumerate_cycle_sets": ("self_s",),
    "oracle.canonical_form": ("calls", "self_s"),
    "oracle.brute_iso": ("self_s",),
    "oracle.brute_aut": ("self_s",),
    "cli.main": ("self_s",),
    "jsonio.load_document": ("self_s",),
    "jsonio.dump_line": ("calls", "self_s"),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "peak_mb": "MB"}
MODULES = ("perms", "cycleset", "solutions", "families", "counting", "classify", "brace", "oracle", "cli", "jsonio")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{field}": FIELD_UNITS[field] for name, fields in LAYER_FIELDS.items() for field in fields}
    units.update(
        {
            "classify.iso_calls_in_classify": "count",
            "classify.candidates_per_classify": "1",
            "brace.elements_built": "count",
            "brace.elements_per_s": "1/s",
            "oracle.nodes": "count",
            "oracle.nodes_per_s": "1/s",
        }
    )
    units.update({f"share.{mod}": "1" for mod in MODULES + ("untraced",)})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"})
    return units


# -- running items ----------------------------------------------------------------


class Pass:
    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[dict] = []
        self.elapsed = 0.0

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def judge(item, out, exc) -> str | None:
    """None when the item passed, else the reason it failed."""
    if item.expect is not None:
        if exc is None:
            return f"returned a result, expected {item.expect.__name__}"
        return None if type(exc) is item.expect else f"raised {type(exc).__name__}, expected {item.expect.__name__}"
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    try:
        return item.check(out)
    except Exception as err:  # a malformed output is a wrong output
        return f"check raised {type(err).__name__}: {err}"


def run_pass(items, tracer=None) -> Pass:
    res = Pass()
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):  # the CLI's diagnostics
        for item in items:
            if tracer is not None:
                tracer.item = item.id
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out, exc = item.call(), None
            except Exception as err:
                out, exc = None, err
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            res.latencies.append(dt)
            res.kinds.append(item.kind)
            reason = judge(item, out, exc)
            if reason is not None:
                known = item.known_defect if item.excused(exc) else None
                res.failures.append({"item": item.id, "reason": reason[:300], "known_defect": known})
    res.elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_pass()
    return res


def run_passes(items, seconds: float, references: list[float]) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; at least one.

    The reference loop is timed after each pass, into ``references``.
    """
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start + passes[-1].elapsed <= seconds:
        passes.append(run_pass(items))
        references.append(reference_seconds())
    return passes


def reference_work() -> int:
    """The reference loop: tuple building, dict updates, small numpy gathers."""
    import numpy as np

    row, seen = tuple(range(64)), {}
    for i in range(400):
        key = tuple(row[(j * 7 + i) & 63] for j in range(8))
        seen[key] = seen.get(key, 0) + 1
    a = np.arange(256)
    for _ in range(40):
        a = a[(a * 5 + 1) & 255]
    return len(seen) + int(a[0])


def reference_seconds() -> float:
    """The fastest of REFERENCE_SAMPLES reference loops."""
    best = float("inf")
    for _ in range(REFERENCE_SAMPLES):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def percentile(values, q: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_seconds(src: str) -> float:
    """Time a fresh interpreter takes to import numpy and the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


# -- environment ------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=20)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "seed": seed,
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


# -- metrics ----------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def item_latencies(passes) -> list[float]:
    """Each item's fastest latency over the passes.

    Noise on a shared host comes in bursts of a few seconds and only ever
    adds time; an item's best pass drops every burst that misses one pass.
    """
    return [min(xs) for xs in zip(*(p.latencies for p in passes))]


def around(items, lat, q: float, width: int = 3) -> list:
    """The items ranked next to the q-quantile, fastest first: which group it falls in."""
    order = sorted(range(len(lat)), key=lat.__getitem__)
    mid = round((len(lat) - 1) * q)
    return [(items[i].id, lat[i] * 1e3) for i in order[max(0, mid - width) : mid + width + 1]]


def timings(passes, setup_s: float) -> dict[str, float]:
    lat = item_latencies(passes)
    return {
        "wall_s": sum(lat),
        "item_p50_ms": percentile(lat, 0.5) * 1e3,
        "item_p90_ms": percentile(lat, 0.9) * 1e3,
        "setup_s": setup_s,
    }


def end_to_end(passes, setup_s: float, slowdown: float) -> dict:
    """The end-to-end metrics, timings divided by the host's slowdown."""
    values = {name: value / slowdown for name, value in timings(passes, setup_s).items()}
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["pass_ratio"] = 1 - failed / attempted
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(tracer, traced, untraced) -> dict:
    """Per-layer metrics of the traced passes; ``untraced`` passes give the overhead."""
    wall = statistics.fmean(p.wall for p in traced)
    table = tracer.layer_table(len(traced), wall)
    funcs, counters = table["functions"], table["counters"]
    values = {}
    for name, fields in LAYER_FIELDS.items():
        for field in fields:
            if field == "peak_mb":
                values[f"{name}.peak_mb"] = table["peaks_mb"].get(name, 0.0)
            else:
                values[f"{name}.{field}"] = funcs[name][field]
    classify_calls = funcs["classify.classify_size_p2"]["calls"]
    values["classify.iso_calls_in_classify"] = table["iso_in_classify"]
    values["classify.candidates_per_classify"] = table["iso_in_classify"] / classify_calls if classify_calls else 0.0
    build_s = funcs["brace.build_perm_brace"]["total_s"]
    values["brace.elements_built"] = counters.get("brace.elements_built", 0.0)
    values["brace.elements_per_s"] = values["brace.elements_built"] / build_s if build_s else 0.0
    oracle_s = funcs["oracle.enumerate_cycle_sets"]["total_s"]
    values["oracle.nodes"] = counters.get("oracle.nodes", 0.0)
    values["oracle.nodes_per_s"] = values["oracle.nodes"] / oracle_s if oracle_s else 0.0
    for mod in MODULES + ("untraced",):
        values[f"share.{mod}"] = table["shares"].get(mod, 0.0)
    values["trace.wall_s"] = sum(item_latencies(traced))
    values["trace.untraced_wall_s"] = sum(item_latencies(untraced))
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return {name: metric(values[name], unit) for name, unit in per_layer_units().items()}


def kind_summary(passes) -> dict:
    by_kind = defaultdict(list)
    for p in passes:
        for kind, dt in zip(p.kinds, p.latencies):
            by_kind[kind].append(dt)
    per_pass = len(passes)
    return {
        kind: {"items_per_pass": len(xs) // per_pass, "p50_ms": percentile(xs, 0.5) * 1e3, "max_ms": max(xs) * 1e3}
        for kind, xs in sorted(by_kind.items())
    }


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "classify", "brace", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced item lists (smoke test)")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cyclesets", "__init__.py")):
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (part of the import cost a user pays)

    import cyclesets
    import cyclesets.cli

    import_s = time.perf_counter() - T_START
    if os.path.dirname(os.path.dirname(os.path.abspath(cyclesets.__file__))) != src:
        print(f"error: imported cyclesets from {cyclesets.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        # one set-up: the import in a fresh interpreter, then input
        # generation; the previous set-up's garbage is collected untimed
        # first, so that every set-up starts from the same heap
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            builder = None
            gc.collect()
            imported = import_seconds(src)
            t0 = time.perf_counter()
            builder = workloads.Builder(cyclesets, args.seed, args.quick, work)
            workloads.WORKLOADS[args.workload](builder)
            setup_times.append(imported + time.perf_counter() - t0)
        items = builder.items
        setup_s = statistics.median(setup_times)

        tracer = None
        if args.trace:
            # passes alternate between tracing off and on, so that both see
            # the same warm-up and the same host; the wrappers stay installed
            # and cost one flag test per call while off
            tracer = Tracer()
            tracer.install()
            origin = start = time.perf_counter()
            untraced, passes = [], []
            while not passes or time.perf_counter() - start + untraced[-1].elapsed + passes[-1].elapsed <= args.seconds:
                untraced.append(run_pass(items))
                passes.append(run_pass(items, tracer))
            metrics = per_layer(tracer, passes, untraced)
            all_passes = untraced + passes
        else:
            pass_refs = [reference_seconds()]
            passes = run_passes(items, args.seconds, pass_refs)
            slowdown = min(pass_refs) / REFERENCE_NOMINAL_S
            metrics = end_to_end(passes, setup_s, slowdown)
            all_passes = passes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    correct = all(f["known_defect"] for f in failures)
    first_seen = {}
    for f in failures:
        first_seen.setdefault(f["item"], f)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "quick": args.quick,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "items_per_pass": len(items),
        "passes": len(all_passes),
        "pass_walls_s": [p.wall for p in all_passes],
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": list(first_seen.values()),
        "kinds": kind_summary(all_passes),
    }
    if not args.trace:
        lat = item_latencies(passes)
        report["around_p50_ms"] = around(items, lat, 0.5)
        report["around_p90_ms"] = around(items, lat, 0.9)
        report["slowdown"] = slowdown
        report["unscaled"] = timings(passes, setup_s)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    if tracer is not None:
        spans_path = os.path.join(OUT_DIR, f"spans-{tag}.jsonl")
        tracer.write_spans(spans_path, origin)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        report["spans"] = tracer.span_count
    item_ms = {item.id: dt * 1e3 for item, dt in zip(items, item_latencies(passes))}
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "metrics": metrics, "item_ms": item_ms}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
