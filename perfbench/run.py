#!/usr/bin/env python3
"""Builds and runs the tglink benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload itersub_serial --seed 42 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the tglink library and the harness
(perfbench/tglink_bench.cc) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls rebuild only what changed. Build
output goes to stderr, so the harness's JSON result stays the last line of
stdout. --selftest checks that the harness counts a tampered fingerprint as
a failed operation and that its metric names match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("itersub_serial", "itersub_threads4", "baselines")
# The harness must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        fail(f"no tglink sources under {ROOT}; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "tglink_bench",
         "-j", BUILD_JOBS],
        stdout=sys.stderr, check=True)
    return build_dir, build_dir / "tglink_bench"


def run_harness(binary, args, capture=False):
    try:
        return subprocess.run(
            [str(binary)] + args, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    proc = run_harness(binary, ["--workload", "baselines", "--seed", "42",
                                "--seconds", "1", "--trace", "0",
                                "--tamper-op", "2"], capture=True)
    result = last_json(proc.stdout)
    if proc.returncode != 0 or result is None:
        problems.append(f"tampered run exited {proc.returncode}")
    else:
        if result["correct"] is not False:
            problems.append("tampered run still reports correct=true")
        if result["failed"] != 1:
            problems.append(f"tampered run counts {result['failed']} "
                            "failures, expected 1")
        if result["metrics"]["success_ratio"]["value"] >= 1.0:
            problems.append("tampered run reports success_ratio 1")
        names = {m["name"] for m in spec["end_to_end"]}
        if set(result["metrics"]) != names:
            problems.append("end-to-end metric names differ from "
                            "BENCHMARK.json")

    proc = run_harness(binary, ["--workload", "baselines", "--seed", "42",
                                "--seconds", "1", "--trace", "1"],
                       capture=True)
    result = last_json(proc.stdout)
    if proc.returncode != 0 or result is None:
        problems.append(f"traced run exited {proc.returncode}")
    else:
        if result["correct"] is not True or result["failed"] != 0:
            problems.append("untampered traced run reports a failure")
        names = {m["name"] for m in spec["per_layer"]}
        if set(result["metrics"]) != names:
            problems.append("per-layer metric names differ from "
                            "BENCHMARK.json")
        elif result["metrics"]["trace.replay_match"]["value"] != 1:
            problems.append("traced replay differs from LinkCensusPair")

    for p in problems:
        print(f"selftest: FAIL: {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir, binary = build()
    if args.selftest:
        return selftest(binary)

    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = build_dir / "spans"
        spans_dir.mkdir(exist_ok=True)
        harness_args += ["--spans-out",
                         str(spans_dir / f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return run_harness(binary, harness_args).returncode


if __name__ == "__main__":
    sys.exit(main())
