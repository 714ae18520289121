#!/usr/bin/env python3
"""Budgeted exhaustive hunt for indecomposable cycle sets of size 9.

The size-9 search space is far too large to finish on a desk machine, so
this script runs the backtracking search under a node and/or time budget,
classifies whatever it finds against the sixteen constructed p=3 classes,
and reports the completeness flag of the run.  A complete run would
certify the p=3 classification outright; an incomplete run still checks
that nothing *outside* the constructed list turned up within the budget.
"""

import argparse
import json
import sys
import time

from cyclesets import (
    SearchOptions,
    classify_size_p2,
    enumerate_classes,
    enumerate_cycle_sets,
    iso_cycle_sets,
    to_cycle_set,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-nodes", type=int, default=5_000_000,
                    help="search-tree node budget (default 5e6)")
    ap.add_argument("--time-budget", type=float, default=300.0,
                    help="wall-clock budget in seconds (default 300)")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes, sharing the 67 row-0 representatives and the node budget")
    args = ap.parse_args(argv)

    known = [to_cycle_set(q) for q in enumerate_classes(3)]
    print(f"constructed p=3 classes: {len(known)}", file=sys.stderr)

    opts = SearchOptions(
        9,
        indecomposable_only=True,
        max_nodes=args.max_nodes,
        time_budget=args.time_budget,
        jobs=args.jobs,
    )
    t0 = time.monotonic()
    res = enumerate_cycle_sets(opts)
    elapsed = time.monotonic() - t0

    unmatched = []
    labels = []
    for cs in res.classes:
        hit = next(
            (i for i, ref in enumerate(known) if iso_cycle_sets(cs, ref) is not None),
            None,
        )
        if hit is None:
            unmatched.append(cs.table)
        else:
            labels.append(repr(classify_size_p2(cs)))

    report = {
        "n": 9,
        "complete": res.complete,
        "nodes": res.nodes,
        "elapsed_seconds": round(elapsed, 1),
        "classes_found": len(res.classes),
        "matched_constructed": len(labels),
        "outside_constructed_list": len(unmatched),
        "labels": sorted(labels),
    }
    print(json.dumps(report, sort_keys=True))
    if unmatched:
        print("unexpected tables:", file=sys.stderr)
        for t in unmatched:
            print(t, file=sys.stderr)
        return 1
    flag = "COMPLETE" if res.complete else "INCOMPLETE (budget hit)"
    print(f"search {flag}; every class found matches a constructed one",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
