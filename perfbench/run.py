#!/usr/bin/env python3
"""Builds and runs the rbcast wall-clock benchmark.

Usage, from the root of an rbcast checkout:

    python3 perfbench/run.py --workload wan64 --seed 1 --seconds 10 --trace 0

Workloads: wan64, stream16 (see perfbench/README.md). Every call
configures and incrementally builds perfbench/ (and the library from src/)
in Release mode under $CARGO_TARGET_DIR, or .bench_build when that is
unset; only the first call compiles. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. With --trace 1 the
span files land in <build dir>/perfbench-traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--out-dir", os.path.join(target, "perfbench-traces")]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
