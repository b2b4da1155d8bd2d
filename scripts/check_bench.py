#!/usr/bin/env python3
"""Compare bench stats documents against the checked-in baselines.

Each bench run (scripts/run_all.sh) drops BENCH_<name>.json at the repo
root: {"counters": {...}, "histograms": {hist: {count, sum, ..., p50,
p95, p99}}}. The committed reference documents live in bench/baselines/
under the same <name>.json. This script flags every histogram whose
median regressed by more than the threshold (default 25%) relative to its
baseline.

Medians below --min-us (default 100 microseconds) are skipped: at that
scale scheduler noise dwarfs real regressions. Counters are compared
exactly informationally (work counts should be deterministic) but never
fail the check — they drift legitimately when workloads are retuned.
Each bench reports how many of its baseline histograms it compared and
how many sat under --min-us; a bench with no histogram above the floor
gets a warning naming it, because its gate compares nothing.

Usage:
  scripts/check_bench.py [--baseline-dir bench/baselines] [--current-dir .]
                         [--threshold 0.25] [--min-us 100] [--strict]

Exit status: 0 when no median regressed (or without --strict), 1 when a
regression was found and --strict is set, 2 on usage errors.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def compare_one(name, baseline, current, threshold, min_us):
    """Returns (regressions, compared, under_floor); regressions is a list
    of (histogram, baseline_p50, current_p50, ratio)."""
    regressions = []
    compared = under_floor = 0
    base_hists = baseline.get("histograms", {})
    cur_hists = current.get("histograms", {})
    # A baseline may pin per-histogram thresholds in a top-level
    # "_thresholds" map — e.g. the observability-off guard histogram runs
    # tighter than the global default so instrumentation creep in the
    # disabled path fails CI even when it stays under 25%.
    overrides = baseline.get("_thresholds", {})
    for hist, base in sorted(base_hists.items()):
        cur = cur_hists.get(hist)
        if cur is None:
            print(f"  {name}/{hist}: missing from current run")
            continue
        base_p50 = float(base.get("p50", 0.0))
        cur_p50 = float(cur.get("p50", 0.0))
        if base_p50 < min_us:
            under_floor += 1
            continue  # too small to measure reliably
        compared += 1
        hist_threshold = float(overrides.get(hist, threshold))
        ratio = cur_p50 / base_p50 if base_p50 > 0 else float("inf")
        marker = ""
        if ratio > 1.0 + hist_threshold:
            marker = "  << REGRESSION"
            regressions.append((hist, base_p50, cur_p50, ratio))
        print(
            f"  {name}/{hist}: p50 {base_p50:.1f} -> {cur_p50:.1f} us "
            f"({ratio:.0%} of baseline, threshold {hist_threshold:.0%}){marker}"
        )
    return regressions, compared, under_floor


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default=".")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional slowdown that counts as a regression")
    parser.add_argument("--min-us", type=float, default=100.0,
                        help="ignore medians below this many microseconds")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any median regressed")
    args = parser.parse_args()

    if not os.path.isdir(args.baseline_dir):
        print(f"check_bench: no baseline dir {args.baseline_dir}; nothing to check")
        return 0

    baselines = sorted(
        f for f in os.listdir(args.baseline_dir) if f.endswith(".json")
    )
    if not baselines:
        print(f"check_bench: no baselines in {args.baseline_dir}; nothing to check")
        return 0

    all_regressions = []
    checked = 0
    for fname in baselines:
        name = fname[: -len(".json")]
        current_path = os.path.join(args.current_dir, f"BENCH_{name}.json")
        if not os.path.exists(current_path):
            print(f"{name}: no current run ({current_path} missing); skipped")
            continue
        print(f"{name}:")
        try:
            baseline = load(os.path.join(args.baseline_dir, fname))
            current = load(current_path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"  unreadable stats document: {e}", file=sys.stderr)
            return 2
        checked += 1
        regressions, compared, under_floor = compare_one(
            name, baseline, current, args.threshold, args.min_us
        )
        total = len(baseline.get("histograms", {}))
        print(f"  {name}: compared {compared} of {total} histograms "
              f"({under_floor} under --min-us)")
        if compared == 0:
            print(f"  WARNING: {name}: no histogram compared (each under "
                  f"--min-us {args.min_us:g} us or missing from the run); this bench's "
                  "gate compares nothing")
        for hist, base_p50, cur_p50, ratio in regressions:
            all_regressions.append((name, hist, base_p50, cur_p50, ratio))

    print()
    if not all_regressions:
        print(f"check_bench: OK — no median regressed >"
              f"{args.threshold:.0%} across {checked} bench(es)")
        return 0

    print(f"check_bench: {len(all_regressions)} regression(s) "
          f">{args.threshold:.0%}:")
    for name, hist, base_p50, cur_p50, ratio in all_regressions:
        print(f"  {name}/{hist}: p50 {base_p50:.1f} -> {cur_p50:.1f} us "
              f"({ratio:.2f}x)")
    return 1 if args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
