#!/usr/bin/env python3
"""Runs one end-to-end benchmark workload and prints its metrics.

    python3 bench/e2e/bench.py --workload NAME [--seed N] [--seconds S] \
        [--trace 0|1] [--out FILE]

Run from anywhere; paths resolve against the repository root. The program
(bench/e2e/e2e.cpp) is built first with CMake, in Release, into
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e under the root); a build
that is up to date costs about a second. The workload is the scenario file
bench/e2e/workloads/NAME.yaml with its seed replaced by --seed (the first
input; the program derives seven more from it and times all eight).

--seconds defaults to BENCHMARK.json's run_seconds. It sets the run length
through a fixed count, never through a clock: the timed rounds (each runs
all eight inputs once) that fill that many seconds at the workload's
ROUND_SECONDS. Two builds given the same arguments therefore time exactly
the same work.

Output: every metric of the run as "name value unit" lines, the output
digest and the round-time quartiles, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"} whose metrics are the
BENCHMARK.json end_to_end list (--trace 0) or per_layer list (--trace 1).
--out FILE also writes the program's full record (every metric, digests,
round-time quartiles) as JSON, for bench/e2e/compare.py.

Exits 1 when the build fails, flashflow_e2e fails, or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "bench" / "e2e"
# Per-run wall limit for flashflow_e2e itself; the build is not counted.
RUN_TIMEOUT_S = 170
# Seconds one timed round (eight iterations) of each workload takes on a
# 4-vCPU x86 box with busy neighbours (measured once, then fixed); a calm
# host is faster.
ROUND_SECONDS = {
    "tor2019": 2.0,
    "crowded_slots": 2.9,
    "faults_3p": 3.1,
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds flashflow_e2e; returns its path."""
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build_dir = target_dir / "e2e"
    jobs = str(min(4, os.cpu_count() or 1))
    # Makefile appears only when a configure succeeds, so a failed one is
    # retried on the next run.
    if not (build_dir / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "flashflow_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "flashflow_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload '{args.workload}'")
    scenario = HERE / "workloads" / f"{args.workload}.yaml"
    run_seconds = bench["run_seconds"]
    seconds = run_seconds if args.seconds is None else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")
    rounds = max(1, round(seconds / ROUND_SECONDS[args.workload]))

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"bench.py: build failed: {e}")
        return 1

    cmd = [str(binary), str(scenario), "--rounds", str(rounds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bench.py: flashflow_e2e exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"bench.py: flashflow_e2e exited {proc.returncode} without a result")
        return 1
    record = json.loads(lines[-1])
    record.update(workload=args.workload, trace=args.trace)

    for name, m in record["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    rd = record["rounds"]
    print(f"rounds {rd['count']} of {record['inputs']} inputs (p25 "
          f"{rd['p25_s']} s, median {rd['median_s']} s, p75 {rd['p75_s']} s; "
          f"sum of input medians {rd['set_s']} s)")
    for name, hex_digest in record["digest"].items():
        print(f"digest {name} {hex_digest}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        m = record["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            log(f"bench.py: flashflow_e2e did not report {spec['name']} "
                f"in {spec['unit']}")
            return 1
        metrics[spec["name"]] = m
    ok = record["correct"] and proc.returncode == 0
    print(json.dumps({"correct": ok, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
