#!/usr/bin/env python3
"""Builds trio-sim's benchmark binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pfe_stream --seed 1 --seconds 30 \
        --trace 0

The simulator libraries (src/) and trio_bench (perfbench/src/) are
compiled with CMake into .bench_build/perfbench; later runs rebuild only
what changed. Build output goes to stderr. trio_bench's own output is
passed through, so the last line of stdout is its JSON result. The exit
code is trio_bench's, or nonzero when the build fails.

Workloads, metrics and bounds are declared in BENCHMARK.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "trio_bench")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds trio_bench; returns True on success."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "trio_bench", "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps trio_bench before raising.
        print("run.py: trio_bench exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
