#!/usr/bin/env bash
# Regenerates the committed micro-bench results: builds the six bench
# binaries in <repo>/build (RelWithDebInfo, the repository's default) and
# runs each full, unfiltered suite from the repository root, writing
# BENCH_<name>.json there through --bench_json. Each file opens with the
# context it was measured under (filter and command line). The binaries
# write no file without --bench_json, so a filtered or exploratory run never
# replaces a committed result. Run from anywhere; a full run took under
# two minutes (plus the build) on the 4-core development host.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
benches=(dataframe env index nn serve trainer)

cmake -B "$repo/build" -S "$repo"
cmake --build "$repo/build" -j "$jobs" \
  --target "${benches[@]/#/bench_}"
cd "$repo"
for name in "${benches[@]}"; do
  echo "== bench_$name =="
  "$repo/build/bench/bench_$name" --bench_json="$repo/BENCH_$name.json"
done
