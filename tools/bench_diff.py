#!/usr/bin/env python3
"""Compare a bench_json/ run (tools/bench_to_json.sh output) against a
committed baseline, and fail on regressions beyond a tolerance.

The baseline is one JSON file mapping binary -> benchmark -> real_time,
recorded with --update from a bench_json/ directory:

    tools/bench_to_json.sh                      # writes bench_json/BENCH_*.json
    tools/bench_diff.py --update                # (re)writes the baseline

Compare mode prints a table for every binary in the baseline (cases the
baseline lacks are listed as new, not compared) and exits
nonzero only when a regression exceeds the tolerance AND hard mode is on
(--hard or BENCH_DIFF_HARD=1) — so CI can run it report-only by default.
Inside GitHub Actions, regressions additionally emit ::warning:: annotations.

    tools/bench_diff.py                         # soft gate (report only)
    BENCH_DIFF_HARD=1 tools/bench_diff.py       # hard gate
    tools/bench_diff.py --tolerance 0.25        # looser threshold
"""

import argparse
import json
import os
import sys

DEFAULT_BASELINE = "BENCH_PR9.json"
DEFAULT_DIR = "bench_json"


def load_run_dir(dir_path):
    """bench_json/BENCH_<binary>.json files -> {binary: {bench: {...}}}."""
    out = {}
    if not os.path.isdir(dir_path):
        return out
    for fname in sorted(os.listdir(dir_path)):
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        binary = fname[len("BENCH_"):-len(".json")]
        with open(os.path.join(dir_path, fname)) as f:
            data = json.load(f)
        benches = {}
        for b in data.get("benchmarks", []):
            # Aggregate rows (mean/median/stddev) would double-count.
            if b.get("run_type") == "aggregate":
                continue
            benches[b["name"]] = {
                "real_time": b["real_time"],
                "time_unit": b.get("time_unit", "ns"),
            }
        if benches:
            out[binary] = benches
    return out


def update_baseline(args):
    run = load_run_dir(args.dir)
    if not run:
        print(f"error: no BENCH_*.json found in {args.dir}/ — run "
              "tools/bench_to_json.sh first", file=sys.stderr)
        return 1
    baseline = {
        "comment": "benchmark baseline; regenerate with tools/bench_diff.py "
                   "--update after an intentional perf change",
        "binaries": run,
    }
    with open(args.baseline, "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")
    nbench = sum(len(v) for v in run.values())
    print(f"wrote {args.baseline}: {len(run)} binaries, {nbench} benchmarks")
    return 0


def fmt_time(value, unit):
    return f"{value:.0f}{unit}" if value >= 100 else f"{value:.2f}{unit}"


def compare(args):
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)["binaries"]
    except FileNotFoundError:
        print(f"error: baseline {args.baseline} not found — record one with "
              "--update", file=sys.stderr)
        return 1
    current = load_run_dir(args.dir)
    hard = args.hard or os.environ.get("BENCH_DIFF_HARD") == "1"

    regressions = []
    improvements = 0
    compared = 0
    for binary in sorted(baseline):
        print(f"\n== {binary} ==")
        cur_benches = current.get(binary)
        if not cur_benches:
            print("  (no current run — binary missing from "
                  f"{args.dir}/; skipped)")
            continue
        width = max(len(n) for n in [*baseline[binary], *cur_benches]) + 2
        print(f"  {'benchmark':<{width}} {'baseline':>12} {'current':>12} "
              f"{'delta':>8}")
        for name, base in sorted(baseline[binary].items()):
            cur = cur_benches.get(name)
            if cur is None:
                print(f"  {name:<{width}} {'-':>12} {'-':>12} {'gone':>8}")
                continue
            if cur["time_unit"] != base["time_unit"]:
                print(f"  {name:<{width}} unit changed "
                      f"({base['time_unit']} -> {cur['time_unit']})")
                continue
            compared += 1
            delta = (cur["real_time"] - base["real_time"]) / base["real_time"]
            flag = ""
            if delta > args.tolerance:
                flag = " REGRESSED"
                regressions.append((binary, name, delta))
            elif delta < -args.tolerance:
                flag = " improved"
                improvements += 1
            print(f"  {name:<{width}} "
                  f"{fmt_time(base['real_time'], base['time_unit']):>12} "
                  f"{fmt_time(cur['real_time'], cur['time_unit']):>12} "
                  f"{delta:>+7.1%}{flag}")
        # Cases the baseline does not know yet: shown, never compared.
        for name in sorted(set(cur_benches) - set(baseline[binary])):
            cur = cur_benches[name]
            print(f"  {name:<{width}} {'-':>12} "
                  f"{fmt_time(cur['real_time'], cur['time_unit']):>12} "
                  f"{'new':>8}")

    print(f"\n{compared} benchmarks compared, {len(regressions)} regressed "
          f"beyond {args.tolerance:.0%}, {improvements} improved")
    for binary, name, delta in regressions:
        msg = (f"benchmark regression: {binary}/{name} {delta:+.1%} "
               f"(tolerance {args.tolerance:.0%})")
        if os.environ.get("GITHUB_ACTIONS") == "true":
            print(f"::warning title=bench regression::{msg}")
        else:
            print(f"warning: {msg}", file=sys.stderr)
    if regressions and hard:
        print("hard gate enabled (BENCH_DIFF_HARD=1 or --hard): failing",
              file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"baseline file (default {DEFAULT_BASELINE})")
    parser.add_argument("--dir", default=DEFAULT_DIR,
                        help=f"current-run directory (default {DEFAULT_DIR})")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative slowdown treated as a regression "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run")
    parser.add_argument("--hard", action="store_true",
                        help="exit 1 on regressions (also BENCH_DIFF_HARD=1)")
    args = parser.parse_args()
    return update_baseline(args) if args.update else compare(args)


if __name__ == "__main__":
    sys.exit(main())
