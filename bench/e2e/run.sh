#!/usr/bin/env bash
# Runs every end-to-end benchmark workload in turn, traced, and prints
# every metric with its name and unit.
#
#   bench/e2e/run.sh [--seed N] [--out DIR]
#
# --seed defaults to 20210613 (7 is the held-out seed). The run length is
# BENCHMARK.json's run_seconds. Each workload's full record goes to
# DIR/<workload>.json (default .bench_build/e2e-results), the input of
# bench/e2e/compare.py. Exits non-zero as soon as a workload fails its
# output checks.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
seed=20210613
out="$root/.bench_build/e2e-results"
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed N] [--out DIR]" >&2; exit 2 ;;
  esac
done

workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json")"
mkdir -p "$out"
for workload in $workloads; do
  echo "== $workload (seed $seed)"
  python3 "$root/bench/e2e/bench.py" --workload "$workload" --seed "$seed" \
    --trace 1 --out "$out/$workload.json" | sed '$d'
done
echo "records in $out"
