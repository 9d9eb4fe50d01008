#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md beside this file).

One run, from the root of a checkout:

    python3 e2e_bench/run.py --ref-version ref-v1 --ref-nominal-ms 3.0 \\
        --workload olap_adhoc --seed 1 --seconds 15 --trace 0

builds the library and the harness from source into .bench_build/ (the
first time), runs one workload, and prints the harness's output; the last
line is the JSON result. Each harness process sets up once, cold, from
process start to its first timed op; a run also starts SETUP_PROCESSES
processes that only set up, and reports each set-up metric as the median
over all of them. Two more modes take the reference constants from
BENCHMARK.json's command:

    python3 e2e_bench/run.py --steadiness 10 [--workloads a,b] [--trace 1]
        runs the workloads alternately N times, each with another seed, and
        prints each run's metrics (stderr), then each metric's median,
        quartiles, range and slope against bench.ref_ms across the runs.
    python3 e2e_bench/run.py --selftest
        a smoke run of one block of ops per workload: every named metric
        must print with its unit, a corrupted answer must land in `failed`,
        and the drift adjustment must be the identity at
        ref_local == ref_nominal.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
# Wall-time budget of one run, all of its processes together.
RUN_TIMEOUT_S = 170
# Processes per run that stop after their set-up, besides the one that runs
# the ops: setup_s is the median of their cold set-ups.
SETUP_PROCESSES = 4


def fail(message):
    print("e2e_bench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))


def harness_env():
    # The benchmark runs the program at its defaults: no thread, kernel or
    # cache-size override may leak in from the environment.
    return {k: v for k, v in os.environ.items() if not k.startswith("STATCUBE_")}


def run_binary(args, deadline=None):
    """Runs the harness; returns (exit code, stdout lines)."""
    if deadline is None:
        deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              env=harness_env(), text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


REFERENCE_FLAGS = ("--ref-version", "--ref-nominal-ms")


def reference_args(ns):
    """The reference-kernel constants: from the flags, else BENCHMARK.json."""
    if ns.ref_version and ns.ref_nominal_ms:
        return ["--ref-version", ns.ref_version,
                "--ref-nominal-ms", ns.ref_nominal_ms]
    try:
        with open("BENCHMARK.json") as f:
            command = json.load(f)["command"]
        return [x for flag in REFERENCE_FLAGS
                for x in command[command.index(flag):command.index(flag) + 2]]
    except (OSError, ValueError, KeyError):
        fail("--ref-version/--ref-nominal-ms not given and not in BENCHMARK.json")


def last_json(lines):
    return json.loads(lines[-1]) if lines else None


def run_once(args):
    """One benchmark run: SETUP_PROCESSES set-up-only processes, then the
    process that runs the ops. Each set-up metric the result holds becomes
    the median over every process's cold set-up. Returns (exit code, stdout
    lines)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    for _ in range(SETUP_PROCESSES):
        code, lines = run_binary(args + ["--setup-only"], deadline)
        if code != 0:
            return code, lines
        setups.append(last_json(lines)["metrics"])
    code, lines = run_binary(args, deadline)
    if code != 0:
        return code, lines
    result = last_json(lines)
    for name, metric in result["metrics"].items():
        if name in setups[0]:
            metric["value"] = statistics.median(
                [s[name]["value"] for s in setups] + [metric["value"]])
    return code, lines[:-1] + [json.dumps(result)]


def ref_slope(values, refs):
    """Slope of log(value) on log(bench.ref_ms) across runs: about 0 when
    the drift adjustment cancels the machine's speed, the metric's own
    elasticity for an unadjusted timing."""
    if len(values) != len(refs) or len(refs) < 3 or min(values) <= 0:
        return float("nan")
    x = [math.log(r) for r in refs]
    y = [math.log(v) for v in values]
    mx, my = statistics.mean(x), statistics.mean(y)
    sxx = sum((a - mx) ** 2 for a in x)
    if sxx == 0:
        return float("nan")
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx


def steadiness(ns, ref):
    workloads = ns.workloads.split(",")
    values = {w: {} for w in workloads}
    refs = {w: [] for w in workloads}
    for i in range(ns.steadiness):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            args = ref + ["--workload", w, "--seed", str(ns.seed + i),
                          "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
            code, lines = run_once(args)
            if code != 0:
                fail("%s seed %d exited %d" % (w, ns.seed + i, code))
            result = last_json(lines)
            if not result["correct"] or result["failed"]:
                fail("%s seed %d: incorrect or failed ops" % (w, ns.seed + i))
            for name, m in result["metrics"].items():
                values[w].setdefault((name, m["unit"]), []).append(m["value"])
            for line in lines[:-1]:
                # Unadjusted timings and the reference kernel's median,
                # printed beside the adjusted metrics.
                parts = line.split()
                for k in range(0, len(parts) - 1):
                    if parts[k].startswith("bench.wall_"):
                        values[w].setdefault((parts[k], "raw"), []).append(
                            float(parts[k + 1]))
                    if parts[k] == "bench.ref_ms":
                        refs[w].append(float(parts[k + 1]))
            if "bench.ref_ms" in result["metrics"]:
                refs[w].append(result["metrics"]["bench.ref_ms"]["value"])
            print("run %d %s seed %d: %s" % (
                i, w, ns.seed + i, " ".join(
                    "%s=%.4g" % (k, m["value"])
                    for k, m in result["metrics"].items())) +
                  (" bench.ref_ms=%.4g" % refs[w][-1] if refs[w] else ""),
                  file=sys.stderr)
    print("%-16s %-28s %6s %12s %12s %12s %8s %8s %9s" %
          ("workload", "metric", "n", "median", "q1", "q3", "iqr%", "range%",
           "ref_slope"))
    for w in workloads:
        if refs[w]:
            values[w].setdefault(("bench.ref_ms", "raw"), refs[w])
        for (name, unit), v in values[w].items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            scale = abs(med) if med else 1.0
            print("%-16s %-28s %6d %12.4f %12.4f %12.4f %8.2f %8.2f %9.2f" %
                  (w, name + " [" + unit + "]", len(v), med, q1, q3,
                   (q3 - q1) / scale * 100, (max(v) - min(v)) / scale * 100,
                   ref_slope(v, refs[w])))


def selftest(ref):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    code, lines = run_binary(["--check-identity"])
    if code != 0:
        problems.append("drift adjustment is not the identity: " + " ".join(lines))
    for w in [x["name"] for x in bench["workloads"]]:
        # --seconds 0.1 rounds up to one block of ops.
        smoke = ref + ["--workload", w, "--seed", "7", "--seconds", "0.1"]
        for trace in (0, 1):
            code, lines = run_once(smoke + ["--trace", str(trace)])
            result = last_json(lines) if code == 0 else None
            if result is None:
                problems.append("%s trace %d exited %d" % (w, trace, code))
                continue
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s trace %d metrics differ from BENCHMARK.json: %s"
                                % (w, trace, sorted(set(got.items()) ^
                                                    set(expected[trace].items()))))
            if not result["correct"] or result["failed"]:
                problems.append("%s trace %d: correct=%s failed=%d" %
                                (w, trace, result["correct"], result["failed"]))
        code, lines = run_once(smoke + ["--trace", "0", "--corrupt-answers"])
        result = last_json(lines) if code == 0 else None
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append("%s: a corrupted answer did not land in failed" % w)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref-version")
    parser.add_argument("--ref-nominal-ms")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out-dir", default=".bench_out")
    parser.add_argument("--steadiness", type=int, default=0)
    parser.add_argument("--workloads", default="olap_adhoc,sdb_census,dashboard_live")
    parser.add_argument("--selftest", action="store_true")
    ns = parser.parse_args()

    build()
    if ns.selftest:
        sys.exit(selftest(reference_args(ns)))
    if ns.steadiness:
        steadiness(ns, reference_args(ns))
        return
    if not ns.workload:
        fail("--workload is required")
    code, lines = run_once(reference_args(ns) + [
        "--workload", ns.workload, "--seed", str(ns.seed),
        "--seconds", ns.seconds, "--trace", str(ns.trace),
        "--out-dir", ns.out_dir])
    if code != 0:
        fail("harness exited %d" % code)
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
