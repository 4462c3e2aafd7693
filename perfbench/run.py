#!/usr/bin/env python3
"""Builds the eclarity query benchmark and runs one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

perfbench/ is a CMake package of its own: it compiles the eclarity
libraries from the repository's src/ in Release mode, plus the driver in
perfbench/src, into .bench_build/perfbench. Build output goes to stderr.
The driver runs the workload in a fresh process and its standard output
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "eclarity_bench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; raises on failure."""
    def run(cmd):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)

    generated = any(os.path.exists(os.path.join(BUILD, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD, "--target", "eclarity_bench", "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        done = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace,
             "--root", ROOT],
            timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
