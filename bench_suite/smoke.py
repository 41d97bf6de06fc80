#!/usr/bin/env python3
"""Smoke check of bench_suite: every workload at --smoke scale, untraced
and traced, must succeed and report exactly the metric names and units
BENCHMARK.json lists, so a rotted benchmark fails fast.

    python3 bench_suite/smoke.py <bench_suite binary> <BENCHMARK.json>
"""
import json
import subprocess
import sys


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in expected.items():
            run = subprocess.run([binary, "--workload", workload, "--seed", "1", "--trace",
                                  trace, "--smoke"], capture_output=True, text=True)
            what = f"{workload} --trace {trace}"
            if run.returncode != 0:
                failures.append(f"{what}: exit {run.returncode}\n{run.stderr[-2000:]}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != names:
                failures.append(f"{what}: metrics {sorted(got.items())} != {sorted(names.items())}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{what}: result {result}")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
