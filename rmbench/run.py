#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see rmbench/README.md).

Run from the repository root:

  python3 rmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 rmbench/run.py --workload all --seed N --seconds S --trace 0|1

The first call configures and builds the `rmbench` program (Release) into
.bench_build/; later calls only rebuild what changed. Each workload runs in
its own process. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; with `--workload all` its
metrics are prefixed by workload name, after one table per workload.
Build logs and progress go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORKLOADS = ["sample-heavy", "select-heavy", "spill"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # one workload's run, after the build


def build():
    """Configures (once) and builds the program; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "rmbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rmbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: {' '.join(cmd)} exited {done.returncode}",
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "rmbench")


def run_one(binary, workload, args):
    """Runs one workload; returns (its standard output, result) or None."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", BUILD_DIR]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    if args.epsilon is not None:
        cmd += ["--epsilon", str(args.epsilon)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        print(f"run.py: {workload} exited {done.returncode}", file=sys.stderr)
        return None
    try:
        return done.stdout, json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"run.py: {workload}: unreadable result: {e}", file=sys.stderr)
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--scale", type=float, default=None,
                   help="shrink the workloads (self-check only)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="override epsilon (self-check: forced failures)")
    args = p.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: the library sources (src/) are missing",
              file=sys.stderr)
        return 1
    os.chdir(ROOT)
    binary = build()
    if binary is None:
        return 1
    if args.workload != "all":
        got = run_one(binary, args.workload, args)
        if got is None:
            return 1
        sys.stdout.write(got[0])
        return 0
    results = {}
    for w in WORKLOADS:
        got = run_one(binary, w, args)
        if got is None:
            return 1
        results[w] = got[1]
        print(f"== {w}: correct={results[w]['correct']} "
              f"attempted={results[w]['attempted']} "
              f"failed={results[w]['failed']}")
        for name, m in results[w]["metrics"].items():
            print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
    merged = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
