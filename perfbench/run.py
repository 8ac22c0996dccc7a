#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from a source checkout.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; only the first run compiles anything. The benchmark's
own result line is checked against BENCHMARK.json (the metric names and
units of the active list) and printed as the last line of stdout. Any build
error, failed run or malformed result exits non-zero without a result line.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(3, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line of the benchmark output is not JSON")

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"unit mismatches "
             f"{sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
