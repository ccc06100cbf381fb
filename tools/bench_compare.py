#!/usr/bin/env python3
"""Bench regression gate: compare BENCH_*.json runs against committed baselines.

Usage:
  tools/bench_compare.py --current-dir /tmp/bench-json [--baseline-dir bench/baselines]
                         [--tolerance-scale S] [--self-test]

Exit codes: 0 all gated metrics within tolerance, 1 regression detected,
2 operational error (missing/corrupt files, unknown metric path).

Design notes
------------
CI machines are noisy and heterogeneous, so the gate only checks
*machine-robust* metrics: ratios of two timings measured in the same
process on the same data (e.g. kernel-vs-string verification speedup).
Absolute ns/op numbers are recorded in the JSON for humans but are not
gated — they swing with the runner's CPU generation far more than with
code changes.

Each gated metric is a dotted path into the bench JSON plus a direction
and a tolerance factor. For a higher-is-better metric with tolerance t,
the gate fails when current < baseline * t; for lower-is-better, when
current > baseline / t. --tolerance-scale loosens (>1 never fails more
easily) or tightens every tolerance at once, for experimentation.

A metric present in the manifest but missing from the current run is a
hard failure: silently dropping a gated series is itself a regression.

--self-test doctors an in-memory copy of the baseline with a 10x
slowdown and asserts the gate rejects it (and accepts the unmodified
baseline). CI runs it before the real comparison so a gate that has
rotted into always-pass fails loudly.
"""

import argparse
import json
import os
import sys

# (file, dotted metric path, direction, tolerance factor).
# direction: "higher" = bigger is better, "lower" = smaller is better.
# Tolerance 0.6 on a higher-is-better ratio allows a 40% drop before
# failing — wide enough for CI noise on a ratio, narrow enough to catch
# a kernel that silently fell back to the string path (a ~14x change).
MANIFEST = [
    ("BENCH_kernel.json", "verify.speedup", "higher", 0.6),
    ("BENCH_kernel.json", "verify.speedup_cold", "higher", 0.6),
    # SIMD tier ratios. A vector kernel that silently degrades to the
    # scalar merge pins simd_speedup at ~1.0; a Myers regression to the
    # row DP pins speedup_64 at ~1.0 — both far past a 40% allowance.
    ("BENCH_kernel.json", "verify.simd_speedup", "higher", 0.6),
    ("BENCH_kernel.json", "myers.speedup_64", "higher", 0.6),
    # Deterministic (counts verifications and measures recall, no wall
    # clock), so the tolerance is tight: the floor is 0.30 on a 0.333
    # baseline. A frontier that degrades to canonical order recalls
    # 0.167 at the same budget — far below the floor.
    ("BENCH_progressive.json", "progressive.recall_50", "higher", 0.9),
]


def lookup(doc, dotted):
    """Resolves a dotted path into nested dicts; returns None if absent."""
    node = doc
    for hop in dotted.split("."):
        if not isinstance(node, dict) or hop not in node:
            return None
        node = node[hop]
    return node if isinstance(node, (int, float)) else None


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return None


def check(baseline_docs, current_docs, tolerance_scale):
    """Returns (regressions, errors) message lists."""
    regressions, errors = [], []
    for fname, metric, direction, tol in MANIFEST:
        base_doc = baseline_docs.get(fname)
        cur_doc = current_docs.get(fname)
        if base_doc is None:
            errors.append(f"{fname}: baseline file missing or unreadable")
            continue
        if cur_doc is None:
            errors.append(f"{fname}: current run missing or unreadable")
            continue
        base = lookup(base_doc, metric)
        cur = lookup(cur_doc, metric)
        if base is None:
            errors.append(f"{fname}:{metric}: not in baseline")
            continue
        if cur is None:
            # A gated series vanishing from the bench output is a
            # regression in coverage, not an infra error.
            regressions.append(f"{fname}:{metric}: missing from current run")
            continue
        tol = tol * tolerance_scale if direction == "higher" else tol / tolerance_scale
        tol = min(tol, 1.0) if direction == "higher" else max(tol, 1.0)
        if direction == "higher":
            bound = base * tol
            ok = cur >= bound
            rel = f">= {bound:.3f} (baseline {base:.3f} x {tol:.2f})"
        else:
            bound = base / tol if tol != 0 else float("inf")
            ok = cur <= bound
            rel = f"<= {bound:.3f} (baseline {base:.3f} / {tol:.2f})"
        status = "ok" if ok else "REGRESSION"
        print(f"{status:>10}  {fname}:{metric} = {cur:.3f}  want {rel}")
        if not ok:
            regressions.append(
                f"{fname}:{metric}: {cur:.3f} vs baseline {base:.3f} "
                f"(allowed {rel})"
            )
    return regressions, errors


def self_test(baseline_docs):
    """The gate must accept the baseline vs itself and reject a doctored copy."""
    ok_reg, ok_err = check(baseline_docs, baseline_docs, 1.0)
    if ok_reg or ok_err:
        print("self-test FAILED: baseline does not pass against itself",
              file=sys.stderr)
        return False
    doctored = json.loads(json.dumps(baseline_docs))  # deep copy
    for fname, metric, direction, _tol in MANIFEST:
        doc = doctored.get(fname)
        if doc is None:
            continue
        hops = metric.split(".")
        node = doc
        for hop in hops[:-1]:
            node = node[hop]
        # 10x in the bad direction: far outside any sane tolerance.
        node[hops[-1]] *= 0.1 if direction == "higher" else 10.0
    bad_reg, bad_err = check(baseline_docs, doctored, 1.0)
    if len(bad_reg) != len(MANIFEST) or bad_err:
        print("self-test FAILED: doctored slowdown was not rejected",
              file=sys.stderr)
        return False
    print("self-test ok: gate accepts baseline, rejects 10x slowdown")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--current-dir",
                    help="directory holding this run's BENCH_*.json")
    ap.add_argument("--tolerance-scale", type=float, default=1.0,
                    help="scale every tolerance (>1 loosens, <1 tightens)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate rejects a doctored slowdown, then exit")
    args = ap.parse_args()

    files = sorted({fname for fname, _, _, _ in MANIFEST})
    baseline_docs = {
        f: load_json(os.path.join(args.baseline_dir, f)) for f in files
    }
    if any(doc is None for doc in baseline_docs.values()):
        return 2

    if args.self_test:
        return 0 if self_test(baseline_docs) else 2

    if not args.current_dir:
        print("error: --current-dir is required (or use --self-test)",
              file=sys.stderr)
        return 2
    current_docs = {
        f: load_json(os.path.join(args.current_dir, f)) for f in files
    }
    regressions, errors = check(baseline_docs, current_docs,
                                args.tolerance_scale)
    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    if errors:
        return 2
    if regressions:
        print(f"\n{len(regressions)} bench regression(s):", file=sys.stderr)
        for msg in regressions:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print("bench gate: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
