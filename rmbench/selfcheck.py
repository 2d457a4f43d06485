#!/usr/bin/env python3
"""Fast self-check of the benchmark at tiny sizes (about a minute).

Run from the repository root:

  python3 rmbench/selfcheck.py

For every workload, at 2% of its size and one second per mode, it checks
that the untraced run prints exactly the end-to-end metrics of
BENCHMARK.json and the traced run exactly the per-layer metrics, each with
its unit, with every solve, replay and probe check passing. Then it forces
a failure (an epsilon outside (0, 1)) and checks that every attempted solve
is counted as failed and solve_ok_frac reads 0. Exits non-zero on the
first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", SCALE, *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300,
                          check=False)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_metrics(result, declared, label):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: metrics/units differ from BENCHMARK.json: "
           f"missing {sorted(set(want) - set(got))}, "
           f"extra {sorted(set(got) - set(want))}, "
           f"unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    try:
        for w in (x["name"] for x in bench["workloads"]):
            for trace, declared in ((0, bench["end_to_end"]),
                                    (1, bench["per_layer"])):
                label = f"{w} --trace {trace}"
                r = run(w, trace)
                check_metrics(r, declared, label)
                expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 2,
                       f"{label}: expected a correct run, got correct="
                       f"{r['correct']} attempted={r['attempted']} "
                       f"failed={r['failed']}")
                print(f"ok  {label}: {r['attempted']} checked, 0 failed")
        r = run("select-heavy", 0, ["--epsilon", "1.5"])
        expect(not r["correct"] and r["attempted"] >= 1
               and r["failed"] == r["attempted"]
               and r["metrics"]["solve_ok_frac"]["value"] == 0,
               f"forced failure not counted: {r}")
        print(f"ok  forced failure: {r['failed']}/{r['attempted']} failed, "
              "solve_ok_frac 0")
    except (AssertionError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as e:
        print(f"FAIL {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
