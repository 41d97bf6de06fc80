#!/usr/bin/env python3
"""Builds bench_suite from this checkout, then runs it with the given arguments.

    python3 bench_suite/run.py --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]

The build tree is .bench_build/bench_suite under the checkout root; build
output goes to stderr, so the benchmark's JSON result stays the last line
of stdout. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "bench_suite")


def build():
    steps = [["cmake", "-S", os.path.join(ROOT, "bench_suite"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "bench_suite", "-j", "4"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("bench_suite: build failed: " + " ".join(step))


def main():
    build()
    binary = os.path.join(BUILD, "bench_suite")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
