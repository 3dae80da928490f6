#!/usr/bin/env python3
"""Product-path benchmark for ATENA: train -> serve -> score.

Run from the repository root:

    python3 perfbench/run.py --workload train|serve \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
libraries from src/) into .bench_build/cmake on first use, runs one workload
and prints its result as the last line of standard output: one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer table of a traced run (its spans
are kept as CSV under .bench_build/scratch). Build logs and diagnostics go to
standard error. The exit code is 0 only for a run whose checks passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench_atena")
WORKLOADS = ("train", "serve")
# A run must end well inside three minutes; the program itself stops
# after its set-up plus --seconds of timed work and the checks.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no ATENA sources next to perfbench/ "
                 "(expected src/CMakeLists.txt); nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "perfbench_atena"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        # Build logs are shown only when a step fails.
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise subprocess.CalledProcessError(done.returncode, step)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for tests only")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"perfbench: build failed: {error}")

    scratch = os.path.join(ROOT, ".bench_build", "scratch",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.smoke:
        command.append("--smoke")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish "
                 f"in {RUN_TIMEOUT_S} s")

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"perfbench: no result line (exit code {run.returncode})")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    print(json.dumps(result))
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
