#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark records, workload by metric.

    python3 bench/e2e/compare.py A/ B/

A/ and B/ hold records written by `bench.py --out` (run.sh writes one per
workload); every *.json under each directory is read, so A/ may hold many
runs, e.g. A/run01/, A/run02/, ... Runs of one workload pair up in
file-path order, so alternate the two sides while collecting them.

For every workload and metric this prints each side's median and
quartiles and the share of pairs B won (ties count for neither side).
End-to-end metrics get a verdict against their BENCHMARK.json bound:

  improved    at least 10 pairs, B won at least 90% of them, and the
              medians differ by more than A's own quartile spread;
  worse       B's median is worse than A's by more than the bound;
  unresolved  A's quartile spread is wider than the bound, and not every
              run of B beats every run of A;
  unchanged   otherwise.

Metrics a run marks deterministic must repeat exactly between runs of the
same seed; ungated ones read "exact" or "CHANGED". A
gated metric that is also deterministic (abs_err_p50) gets the verdict
above, with "(changed)" appended when its values moved. Exits 1 when any
metric is worse or CHANGED.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Fewest pairs a gain may rest on (the alternating-pairs rule).
MIN_PAIRS = 10


def load(directory):
    """{workload: [record, ...]} in file-path order."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and "workload" in record:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a, b, better, bound, wins, pairs):
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (med_b - med_a)
    if pairs >= MIN_PAIRS and wins >= 0.9 * pairs and gain > q3a - q1a:
        return "improved"
    if -gain > bound * abs(med_a):
        return "worse"
    every_b_better = all(sign * (vb - va) > 0 for vb in b for va in a)
    if q3a - q1a > bound * abs(med_a) and not every_b_better:
        return "unresolved"
    return "unchanged"


def exact(runs_a, runs_b, name):
    """Deterministic metrics: equal values for every seed both sides ran."""
    by_seed = {}
    for record in runs_a + runs_b:
        if name in record["metrics"]:
            by_seed.setdefault(record.get("seed"), set()).add(
                record["metrics"][name]["value"])
    return all(len(values) == 1 for values in by_seed.values())


def fmt(v):
    return f"{v:.6g}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in bench["end_to_end"]}
    directions = {m["name"]: m["better"]
                  for m in bench["end_to_end"] + bench["per_layer"]}
    side_a, side_b = load(argv[1]), load(argv[2])
    bad = False
    for workload in sorted(set(side_a) & set(side_b)):
        runs_a, runs_b = side_a[workload], side_b[workload]
        print(f"== {workload}: {len(runs_a)} runs in A, {len(runs_b)} in B")
        print(f"  {'metric':32} {'A q1/median/q3':>32} "
              f"{'B q1/median/q3':>32} {'B won':>7}  verdict")
        deterministic = set(runs_a[0].get("deterministic", []))
        for name, first in runs_a[0]["metrics"].items():
            a = [r["metrics"][name]["value"] for r in runs_a
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in runs_b
                 if name in r["metrics"]]
            if not a or not b:
                continue
            better = directions.get(name, "lower")
            sign = 1.0 if better == "higher" else -1.0
            pairs = list(zip(a, b))
            wins = sum(1 for va, vb in pairs if sign * (vb - va) > 0)
            same = name not in deterministic or exact(runs_a, runs_b, name)
            if name in gated:
                result = verdict(a, b, better, gated[name]["bound"], wins,
                                 len(pairs))
                if not same:
                    result += " (changed)"
            elif name in deterministic:
                result = "exact" if same else "CHANGED"
            else:
                result = "-"
            bad = bad or result in ("worse", "CHANGED")
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:32} {'/'.join(map(fmt, qa)):>32} "
                  f"{'/'.join(map(fmt, qb)):>32} "
                  f"{wins:>3}/{len(pairs):<3}  {result} [{first['unit']}]")
    for workload in sorted(set(side_a) ^ set(side_b)):
        print(f"== {workload}: only in {'A' if workload in side_a else 'B'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
