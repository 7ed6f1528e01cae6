#!/usr/bin/env python3
"""Builds and runs the warehouse-day benchmark.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload dashboard --seed 1 --seconds 12 --trace 0

The first call configures and builds a Release copy of the engine and the
benchmark into .bench_build/perfbench; later calls reuse it (the build step
is a no-op when nothing changed). Building happens before the benchmark
process starts, so it is never inside a timed region or inside setup_s.

--trace 0 runs one untraced process and prints the end-to-end metrics.
--trace 1 runs an untraced process and then a traced one on the same
inputs, and prints the per-layer metrics plus the tracing overhead: the
traced process's read median and maintenance rate against the untraced
one's. Each process starts cold, so the two are measured alike.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are
diagnostics.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "warehouse_day")
END_TO_END = ("setup_s", "read_p50_us", "reads_per_s", "maint_events_per_s",
              "disk_pages_per_day", "storage_bytes_per_row")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no engine sources (src/) in " + ROOT)
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for step in steps:
        # Build output goes to stderr so stdout stays the benchmark's own.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def run_pass(args, trace):
    """Runs one benchmark process and returns its result line, parsed.

    The process's diagnostic lines are echoed to stdout.
    """
    done = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit("perfbench: benchmark process failed")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dashboard", "report", "refresh"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()
    plain = run_pass(args, 0)
    if args.trace == 0:
        print(json.dumps(plain))
        return
    traced = run_pass(args, 1)
    e2e_plain = plain["metrics"]
    e2e_traced = traced["metrics"]
    metrics = {k: v for k, v in e2e_traced.items() if k not in END_TO_END}
    read_ratio = (e2e_traced["read_p50_us"]["value"] /
                  e2e_plain["read_p50_us"]["value"])
    maint_ratio = (e2e_plain["maint_events_per_s"]["value"] /
                   e2e_traced["maint_events_per_s"]["value"])
    metrics["trace.read_overhead_pct"] = {
        "value": 100.0 * (read_ratio - 1.0), "unit": "%"}
    metrics["trace.maint_overhead_pct"] = {
        "value": 100.0 * (maint_ratio - 1.0), "unit": "%"}
    print(json.dumps({
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
