#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table1_mix --seed 1 --seconds 12 --trace 0

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/ at the checkout root, then runs the benchmark binary with
the workload's fixed parameters from perfbench/workloads.json. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 1 the run also writes its spans as JSONL under
.bench_build/traces/. Any build failure, result mismatch or invalid run
exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure, then (re)build only the benchmark target."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    workloads = config["workloads"]
    if args.workload not in workloads:
        sys.exit("perfbench: unknown workload %r (have %s)"
                 % (args.workload, ", ".join(sorted(workloads))))
    params = dict(config["common"])
    params.update(workloads[args.workload]["params"])

    build()
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--trace-out",
               os.path.join(traces, "%s-seed%d.jsonl"
                            % (args.workload, args.seed))]
    for key, value in sorted(params.items()):
        command += ["--" + key, str(value)]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
