#!/usr/bin/env python3
"""Compares two lrbench recordings metric by metric.

  python3 benchmark/compare.py A.json B.json

A and B are files written by `benchmark/run.py --out`; A is the baseline
(the parent commit, or the first of two sets of runs of the same code).
For every end-to-end metric of every workload it prints both values, the
relative change from A to B, the bound and direction BENCHMARK.json gives
the metric, and whether B is within the bound. Exits 1 if any metric
worsened by more than its bound or a workload or metric is missing from B.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    declared = load(ROOT / "BENCHMARK.json")["end_to_end"]
    a, b = load(argv[1])["workloads"], load(argv[2])["workloads"]
    failures = 0
    print(f"{'workload':22s} {'metric':18s} {'A':>14s} {'B':>14s} {'change':>9s} "
          f"{'bound':>7s} better  result")
    for name in sorted(a):
        for m in declared:
            metric, bound, better = m["name"], m["bound"], m["better"]
            if name not in b or metric not in b[name]["end_to_end"]:
                print(f"{name:22s} {metric:18s} missing from {argv[2]}")
                failures += 1
                continue
            va = a[name]["end_to_end"][metric]["value"]
            vb = b[name]["end_to_end"][metric]["value"]
            change = (vb - va) / va
            worse = change if better == "lower" else -change
            ok = worse <= bound
            failures += not ok
            print(f"{name:22s} {metric:18s} {va:14.6g} {vb:14.6g} {change:+9.2%} "
                  f"{bound:7.1%} {better:7s} {'pass' if ok else 'FAIL'}")
    print("all within bounds" if failures == 0 else f"{failures} metric(s) out of bounds")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
