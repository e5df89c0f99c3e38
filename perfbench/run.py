#!/usr/bin/env python3
"""Entry point of the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale <f>]

Builds the sigsub library and the perfbench load generator from the
sources of this checkout (CMake, Release) into the build root, runs one
workload in its own process, and prints its output. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of the traced replay with --trace 1.

The build root is $CARGO_TARGET_DIR when set (relative paths are taken
from the checkout root), else .bench_build in the checkout. Generated
inputs live in a work directory under it for the length of the run;
the traced run leaves its spans in <build root>/perfbench-traces/.

Exits non-zero without a result line when the program cannot be built
or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("wire_mixed", "substrings_random", "substrings_adversarial")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sigsub.h")):
        fail(f"no sigsub sources under {ROOT}/src; nothing to benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running build step or workload before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size multiplier (self-tests only)")
    args = parser.parse_args()

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    name = f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir = os.path.join(root, "perfbench-work", name)
    traces = os.path.join(root, "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scale", repr(args.scale), "--workdir", workdir]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{args.workload} printed a malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
