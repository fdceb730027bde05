#!/usr/bin/env python3
"""End-to-end placement benchmark: builds and runs one workload.

Run from the repository root:

    python3 placebench/run.py --workload bulk|ilp|mixed --seed N --seconds S --trace 0|1
    python3 placebench/run.py --self-test

Builds placebench/ (a CMake package compiling ../src) into $CARGO_TARGET_DIR
or .bench_build, runs one workload in its own process and prints, as the
last line of standard output, one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json with the
program's obs registry and trace recorder off. --trace 1 runs the workload
twice, untraced then traced, and reports the per-layer metrics of the traced
run plus the tracing overhead against the untraced one. A layer the
workload does not run reports 0. Trace files go to .bench_results/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = ".bench_results"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"placebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = os.path.join(build_dir, "placebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "placebench", "-j", jobs], stdout=sys.stderr
    )
    if result.returncode != 0 or not os.path.exists(binary):
        fail("build failed")
    return binary


def run_binary(args, deadline):
    try:
        result = subprocess.run(
            args, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s in all: {' '.join(args)}")
    lines = result.stdout.strip().splitlines()
    for line in lines[:-1]:  # the operation ledger and any failed check
        print(line)
    if result.returncode != 0 or not lines:
        fail(f"exit code {result.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def declared_metrics(kind):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        fail("BENCHMARK.json not found; run from the repository root")
    return {m["name"]: m["unit"] for m in spec[kind]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["bulk", "ilp", "mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S  # both runs of --trace 1 together
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"], timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    end_to_end = declared_metrics("end_to_end")
    per_layer = declared_metrics("per_layer")
    untraced = run_binary(base + ["--trace", "0"], deadline)
    runs = [untraced]
    if args.trace:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        traced = run_binary(base + ["--trace", "1", "--trace-dir", RESULTS_DIR], deadline)
        runs.append(traced)
        overhead = 100.0 * (
            untraced["metrics"]["throughput_cps"]["value"]
            / traced["metrics"]["throughput_cps"]["value"] - 1.0
        )
        traced["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}

    for run in runs:
        unknown = set(run["metrics"]) - set(end_to_end) - set(per_layer)
        if unknown:
            fail(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    result = runs[-1]
    if args.trace:
        # Layers the workload does not run did no work.
        wanted = {name: result["metrics"].get(name, {"value": 0.0, "unit": unit})
                  for name, unit in per_layer.items()}
    else:
        missing = set(end_to_end) - set(result["metrics"])
        if missing:
            fail(f"end-to-end metrics not reported: {sorted(missing)}")
        wanted = {name: result["metrics"][name] for name in end_to_end}
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": wanted,
    }))


if __name__ == "__main__":
    main()
