#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads train,serve] [--seeds 10]
        [--first-seed 1] [--seconds 10] [--out results.json]

Runs perfbench/run.py once per seed and workload (untraced) and prints, for
each end-to-end metric, the median of the runs and the distance between
their first and third quartiles (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="train,serve")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None,
                        help="also write every run's metrics as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: run failed")
            runs[workload].append(
                {k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.6g}"
                             for k, v in runs[workload][-1].items()),
                  flush=True)
        print(f"\n{workload}: {len(runs[workload])} runs")
        for name, bound in bounds.items():
            values = [run[name] for run in runs[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            print(f"  {name:26s} median {median:12.6g}  spread "
                  f"{spread:7.2%}  bound {bound:.0%}"
                  + ("" if spread <= bound / 3 else "  <-- above bound/3"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
