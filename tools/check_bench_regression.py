#!/usr/bin/env python3
"""Golden-result regression gate for the BENCH_*.json artifacts.

Compares a fresh bench capture against the checked-in goldens under
bench/results/ and separates three field classes:

  bit-exact   revenue, seeding cost, seed counts, theta, graph sizes —
              the determinism contract says these cannot drift for a fixed
              (scale, seed); any difference fails.
  tolerance   wall-clock seconds — gated on a slowdown RATIO (default 8x,
              --time-ratio), and only when both sides are above a noise
              floor; speedups never fail.
  annotate    hardware_concurrency, dataset provenance (file vs synthetic),
              memory/spill byte counters — printed as notes, never fatal
              (goldens may come from a different host class than the run
              being checked).

Independent of any golden, every fresh file's determinism gate booleans
(top-level keys ending in "determinism_ok") must be true.

Usage:
  check_bench_regression.py --golden bench/results --fresh out_dir
  check_bench_regression.py --golden bench/results/BENCH_matrix.json \
      --fresh BENCH_matrix.json [--time-ratio 8] [--allow-missing]
  check_bench_regression.py --self-test

Directories are matched by file name; a file present in the golden dir but
absent from the fresh capture is a coverage regression (fails, unless
--allow-missing). Exit status: 0 pass, 1 regression, 2 usage error.
"""

import argparse
import json
import os
import sys

# Cell-level field classes for BENCH_matrix.json (schema_version 1).
MATRIX_BIT_EXACT = (
    "revenue",
    "seeding_cost",
    "seeds",
    "theta",
    "nodes",
    "arcs",
    "topics",
    "effective_budget",
)
MATRIX_ANNOTATE = (
    "source",
    "rr_bytes",
    "spilled_bytes",
    "memory_budget_bytes",
)
# Captures taken under different values of these knobs are not comparable
# cell-by-cell; refusing beats quietly diffing apples against oranges.
MATRIX_COMPAT = (
    "schema_version",
    "scale",
    "seed",
    "advertisers",
    "epsilon",
    "theta_cap",
    "csrm_window",
)
TIME_NOISE_FLOOR_SECONDS = 0.05


class Report:
    """Collects failures (fatal) and notes (informational)."""

    def __init__(self):
        self.failures = []
        self.notes = []

    def fail(self, msg):
        self.failures.append(msg)

    def note(self, msg):
        self.notes.append(msg)

    @property
    def ok(self):
        return not self.failures


def check_gate_booleans(name, fresh, report):
    """Every top-level *determinism_ok key in a fresh capture must be true."""
    for key, value in fresh.items():
        if key.endswith("determinism_ok") and value is not True:
            report.fail(f"{name}: gate boolean '{key}' is {value!r}, "
                        "expected true")


def check_matrix(name, golden, fresh, report, time_ratio, allow_missing):
    for key in MATRIX_COMPAT:
        if golden.get(key) != fresh.get(key):
            report.fail(
                f"{name}: incomparable captures: '{key}' differs "
                f"(golden {golden.get(key)!r}, fresh {fresh.get(key)!r}); "
                "re-capture the golden at the same settings")
            return
    if golden.get("hardware_concurrency") != fresh.get(
            "hardware_concurrency"):
        report.note(
            f"{name}: hardware_concurrency differs (golden "
            f"{golden.get('hardware_concurrency')}, fresh "
            f"{fresh.get('hardware_concurrency')}) — fine: bit-exact "
            "fields are thread-count-invariant by the determinism contract")

    golden_cells = {c["id"]: c for c in golden.get("cells", [])}
    fresh_cells = {c["id"]: c for c in fresh.get("cells", [])}

    for cid in golden_cells:
        if cid not in fresh_cells:
            msg = f"{name}: cell '{cid}' present in golden, missing fresh"
            if allow_missing:
                report.note(msg + " (allowed by --allow-missing)")
            else:
                report.fail(msg + " (coverage regression)")
    for cid in fresh_cells:
        if cid not in golden_cells:
            report.note(f"{name}: new cell '{cid}' not in golden "
                        "(refresh the golden to start gating it)")

    for cid, fresh_cell in sorted(fresh_cells.items()):
        if fresh_cell.get("determinism_ok") is not True:
            report.fail(f"{name}: cell '{cid}': determinism_ok is "
                        f"{fresh_cell.get('determinism_ok')!r}")
        golden_cell = golden_cells.get(cid)
        if golden_cell is None:
            continue
        for field in MATRIX_BIT_EXACT:
            gv, fv = golden_cell.get(field), fresh_cell.get(field)
            if gv != fv:
                report.fail(f"{name}: cell '{cid}': bit-exact field "
                            f"'{field}' drifted: golden {gv!r} -> fresh "
                            f"{fv!r}")
        for field in MATRIX_ANNOTATE:
            gv, fv = golden_cell.get(field), fresh_cell.get(field)
            if gv != fv:
                report.note(f"{name}: cell '{cid}': {field}: golden {gv!r} "
                            f"-> fresh {fv!r}")
        gs = golden_cell.get("seconds") or 0.0
        fs = fresh_cell.get("seconds") or 0.0
        if (gs > TIME_NOISE_FLOOR_SECONDS
                and fs > TIME_NOISE_FLOOR_SECONDS and fs > gs * time_ratio):
            report.fail(f"{name}: cell '{cid}': wall-clock regression: "
                        f"{gs:.3f}s -> {fs:.3f}s exceeds the {time_ratio}x "
                        "ratio gate")


def check_file(name, golden, fresh, report, time_ratio, allow_missing):
    check_gate_booleans(name, fresh, report)
    if golden.get("bench") == "sweep_matrix" and fresh.get(
            "bench") == "sweep_matrix":
        check_matrix(name, golden, fresh, report, time_ratio, allow_missing)
    elif golden.get("hardware_concurrency") is not None and golden.get(
            "hardware_concurrency") != fresh.get("hardware_concurrency"):
        report.note(f"{name}: hardware_concurrency differs (golden "
                    f"{golden.get('hardware_concurrency')}, fresh "
                    f"{fresh.get('hardware_concurrency')})")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def bench_files(directory):
    return sorted(f for f in os.listdir(directory)
                  if f.startswith("BENCH_") and f.endswith(".json"))


def run(golden_path, fresh_path, time_ratio, allow_missing):
    report = Report()
    if os.path.isdir(golden_path) != os.path.isdir(fresh_path):
        print("error: --golden and --fresh must both be files or both be "
              "directories", file=sys.stderr)
        return 2
    if os.path.isdir(golden_path):
        golden_names = bench_files(golden_path)
        fresh_names = set(bench_files(fresh_path))
        if not golden_names:
            print(f"error: no BENCH_*.json under {golden_path}",
                  file=sys.stderr)
            return 2
        for fname in golden_names:
            if fname not in fresh_names:
                msg = f"{fname}: golden exists but fresh capture is missing"
                if allow_missing:
                    report.note(msg + " (allowed by --allow-missing)")
                else:
                    report.fail(msg)
                continue
            check_file(fname, load(os.path.join(golden_path, fname)),
                       load(os.path.join(fresh_path, fname)), report,
                       time_ratio, allow_missing)
        for fname in sorted(fresh_names.difference(golden_names)):
            report.note(f"{fname}: fresh capture has no golden yet")
    else:
        check_file(os.path.basename(fresh_path), load(golden_path),
                   load(fresh_path), report, time_ratio, allow_missing)

    for note in report.notes:
        print(f"note: {note}")
    for failure in report.failures:
        print(f"FAIL: {failure}")
    if report.ok:
        print(f"bench regression check passed ({len(report.notes)} notes)")
        return 0
    print(f"bench regression check FAILED: {len(report.failures)} "
          f"failure(s), {len(report.notes)} note(s)")
    return 1


# ---------------------------------------------------------------------------
# Self-test: exercises every verdict class on synthetic captures in memory.

def _matrix_doc(**overrides):
    cell = {
        "id": "ds/wc/ic/carm/b1500/m0/t1",
        "revenue": 123.5,
        "seeding_cost": 40.0,
        "seeds": 17,
        "theta": 8000,
        "nodes": 100,
        "arcs": 500,
        "topics": 1,
        "effective_budget": 30.0,
        "source": "synthetic:ba",
        "rr_bytes": 1000,
        "spilled_bytes": 0,
        "memory_budget_bytes": 0,
        "seconds": 1.0,
        "determinism_ok": True,
    }
    cell.update(overrides.pop("cell", {}))
    doc = {
        "bench": "sweep_matrix",
        "schema_version": 1,
        "scale": 0.04,
        "seed": 2017,
        "advertisers": 4,
        "epsilon": 0.3,
        "theta_cap": 30000,
        "csrm_window": 2000,
        "hardware_concurrency": 1,
        "determinism_ok": True,
        "cells": [cell],
    }
    doc.update(overrides)
    return doc


def self_test():
    def verdict(golden, fresh, time_ratio=8.0, allow_missing=False):
        report = Report()
        check_file("t", golden, fresh, report, time_ratio, allow_missing)
        return report

    # Identical captures pass with no notes.
    r = verdict(_matrix_doc(), _matrix_doc())
    assert r.ok and not r.notes, (r.failures, r.notes)

    # Bit-exact drift fails.
    r = verdict(_matrix_doc(), _matrix_doc(cell={"revenue": 123.6}))
    assert not r.ok and "revenue" in r.failures[0], r.failures

    # Wall-clock: slow fails past the ratio, fast only ever passes.
    r = verdict(_matrix_doc(), _matrix_doc(cell={"seconds": 9.0}))
    assert not r.ok and "wall-clock" in r.failures[0], r.failures
    r = verdict(_matrix_doc(), _matrix_doc(cell={"seconds": 0.2}))
    assert r.ok, r.failures

    # hardware_concurrency mismatch annotates, never fails.
    r = verdict(_matrix_doc(), _matrix_doc(hardware_concurrency=8))
    assert r.ok and any("hardware_concurrency" in n for n in r.notes), (
        r.failures, r.notes)

    # Annotate-class drift (provenance, byte counters) notes, never fails.
    r = verdict(_matrix_doc(),
                _matrix_doc(cell={"source": "file:/data/x.txt",
                                  "rr_bytes": 2000}))
    assert r.ok and len(r.notes) == 2, (r.failures, r.notes)

    # A false gate boolean fails even when the golden matches.
    bad = _matrix_doc(determinism_ok=False)
    bad["cells"][0]["determinism_ok"] = False
    r = verdict(_matrix_doc(determinism_ok=False,
                            cells=bad["cells"]), bad)
    assert not r.ok, r.failures

    # Incomparable captures (scale changed) fail up front.
    r = verdict(_matrix_doc(), _matrix_doc(scale=0.5))
    assert not r.ok and "incomparable" in r.failures[0], r.failures

    # Missing cell: coverage regression, unless --allow-missing.
    gone = _matrix_doc()
    gone["cells"] = []
    r = verdict(_matrix_doc(), gone)
    assert not r.ok and "coverage regression" in r.failures[0], r.failures
    r = verdict(_matrix_doc(), gone, allow_missing=True)
    assert r.ok, r.failures

    # New fresh cell is a note, not a failure.
    extra = _matrix_doc()
    extra["cells"].append(dict(extra["cells"][0],
                               id="ds/wc/ic/carm/b1500/m0/t2"))
    r = verdict(_matrix_doc(), extra)
    assert r.ok and any("new cell" in n for n in r.notes), (r.failures,
                                                           r.notes)

    # Non-matrix bench file: only the gate booleans are checked.
    r = verdict({"bench": "fig5_scalability", "determinism_ok": True},
                {"bench": "fig5_scalability", "determinism_ok": True,
                 "e2e_determinism_ok": False})
    assert not r.ok and "e2e_determinism_ok" in r.failures[0], (
        r.failures)

    print("self-test ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Golden-result regression gate for BENCH_*.json")
    parser.add_argument("--golden", help="golden file or directory")
    parser.add_argument("--fresh", help="fresh capture file or directory")
    parser.add_argument("--time-ratio", type=float, default=8.0,
                        help="max allowed fresh/golden wall-clock ratio "
                             "(default 8; speedups always pass)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="missing files/cells annotate instead of fail")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.golden or not args.fresh:
        parser.error("--golden and --fresh are required (or --self-test)")
    if not os.path.exists(args.golden):
        print(f"error: golden path does not exist: {args.golden}",
              file=sys.stderr)
        return 2
    if not os.path.exists(args.fresh):
        print(f"error: fresh path does not exist: {args.fresh}",
              file=sys.stderr)
        return 2
    return run(args.golden, args.fresh, args.time_ratio, args.allow_missing)


if __name__ == "__main__":
    sys.exit(main())
