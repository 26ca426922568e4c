#!/usr/bin/env python3
"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

  python3 bench/e2e/run.py --runs 10 --out A.json   # parent commit
  python3 bench/e2e/run.py --runs 10 --out B.json   # change
  python3 bench/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric):
  ok          B's median is no worse than A's by more than the bound
  regressed   it is worse by more than the bound
  unresolved  the run-to-run spread (interquartile range over median) of A
              or B exceeds the bound, so the runs cannot tell, unless every
              run of B reads better than every run of A (then ok)
Exits 1 if any row regressed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(argv[1]).read_text())["workloads"]
    b = json.loads(Path(argv[2]).read_text())["workloads"]
    regressed = 0
    print(f"{'workload':12s} {'metric':20s} {'A median':>12s} {'B median':>12s}"
          f" {'change':>8s} {'spread':>7s} {'bound':>6s}  status")
    for workload in [w for w in a if w in b]:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va, vb = a[workload].get(name), b[workload].get(name)
            if not va or not vb:
                print(f"{workload:12s} {name:20s} missing")
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = sign * change
            noise = max(spread(va), spread(vb))
            if sign > 0:
                all_better = max(vb) < min(va)
            else:
                all_better = min(vb) > max(va)
            if noise > bound and not all_better:
                status = "unresolved"
            elif worse > bound:
                status = "regressed"
                regressed += 1
            else:
                status = "ok"
            print(f"{workload:12s} {name:20s} {ma:12.6g} {mb:12.6g}"
                  f" {change:+8.2%} {noise:7.2%} {bound:6.0%}  {status}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
