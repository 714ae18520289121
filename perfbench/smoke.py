"""Smoke test of the benchmark itself (about a minute; run from the repository root).

    python3 perfbench/smoke.py

Runs every workload on its reduced item list (``--quick``) with the
reference seed 0 and with seed 1, untraced and traced, and asserts:

* the last stdout line has exactly the keys correct/attempted/failed/metrics;
* every end-to-end (untraced) or per-layer (traced) metric named in
  BENCHMARK.json is printed with its unit, and nothing else;
* outputs are correct, and nothing fails on sweep, classify and census;
* in a directory holding only BENCHMARK.json and the benchmark, the command
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (0, 1)
NO_FAILURES = ("sweep", "classify", "census")


def run(cwd: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    with open(os.path.join(cwd, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for spec in bench["workloads"]:
        workload = spec["name"]
        for seed in SEEDS:
            for trace in (0, 1):
                tag = f"{workload} seed={seed} trace={trace}"
                done = run(ROOT, workload, seed, trace)
                if done.returncode != 0:
                    problems.append(f"{tag}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                    continue
                result = json.loads(done.stdout.splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{tag}: result keys {sorted(result)}")
                    continue
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != expected[trace]:
                    missing = set(expected[trace].items()) ^ set(units.items())
                    problems.append(f"{tag}: metric names or units differ: {sorted(missing)[:10]}")
                if not result["correct"]:
                    problems.append(f"{tag}: an output failed its check")
                if workload in NO_FAILURES and result["failed"] != 0:
                    problems.append(f"{tag}: fail_ratio {result['failed']}/{result['attempted']}")
                print(f"{tag}: {result['attempted']} items, {result['failed']} failed", flush=True)

    stripped = os.path.join(ROOT, ".bench_build", "perfbench", f"stripped-{os.getpid()}")
    try:
        shutil.rmtree(stripped, ignore_errors=True)
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(stripped, path), ignore=shutil.ignore_patterns("__pycache__"))
        done = run(stripped, bench["workloads"][0]["name"], SEEDS[0], 0)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("without the package source the benchmark still printed a result")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
