#!/usr/bin/env python3
"""Smoke test of the product-path benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through perfbench/run.py at tiny
sizes (--smoke), untraced and traced, and checks that each run passes its
own correctness checks and prints exactly the metrics BENCHMARK.json names:
the end-to-end set untraced, the per-layer set traced. Takes about a
minute once the benchmark is built.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(run, expected_units):
    """Returns what is wrong with one run, or None."""
    try:
        result = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "no result line"
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if run.returncode != 0 or not result["correct"]:
        return "checks failed"
    if units != expected_units:
        return "metrics differ from BENCHMARK.json"
    if result["attempted"] < 1 or result["failed"] != 0:
        return "attempted/failed counts wrong"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                stdout=subprocess.PIPE, text=True)
            problem = check(run, expected[trace])
            label = f"{workload} trace={trace}"
            print(f"{label}: {problem or 'ok'}", flush=True)
            if problem:
                failures.append(label)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
