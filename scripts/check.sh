#!/usr/bin/env bash
# Full verification sweep: the tier-1 build + test cycle, the golden
# digests three more times — on the nn kernels' portable fallback, from a
# build for the host's full ISA (-DCMAKE_CXX_FLAGS=-march=native) and from
# one whose dataframe kernels skip -march=native
# (-DATENA_HAS_MARCH_NATIVE=OFF) — one short run of every bench binary
# (which must leave the committed BENCH_*.json files untouched) and the
# product-path benchmark's smoke test, then the same suite again under
# AddressSanitizer (ATENA_SANITIZE=address) and UndefinedBehaviorSanitizer
# (ATENA_SANITIZE=undefined, built with -D_GLIBCXX_ASSERTIONS, which also
# bounds-checks std::vector operator[] and the other libstdc++
# preconditions), and finally the concurrency-sensitive test binaries
# under ThreadSanitizer (ATENA_SANITIZE=thread) — all in separate build
# trees. Run from anywhere; builds land in <repo>/build,
# <repo>/build-native, <repo>/build-generic, <repo>/build-asan,
# <repo>/build-ubsan and <repo>/build-tsan. Every ctest invocation carries a per-test timeout so
# a hung test fails the sweep instead of wedging it.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
test_timeout=600  # seconds per test binary

echo "== tier-1: configure + build + ctest (warnings are errors) =="
# The tier-1 build is warning-free under -Wall -Wextra; -Werror keeps it so.
# The sanitizer builds below keep the default flags.
cmake -B "$repo/build" -S "$repo" -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs" \
  --timeout "$test_timeout"

echo "== golden digests on the portable nn kernels =="
# golden_test reads this switch and calls ForcePortableKernelsForTesting.
ATENA_GOLDEN_PORTABLE_KERNELS=1 ctest --test-dir "$repo/build" \
  --output-on-failure --timeout "$test_timeout" -R '^golden_test$'

echo "== golden digests under -march=native =="
# The digests hold across targets only if no compiler contracts a * b + c
# into an FMA, which -march=native allows on a host with FMA unless every
# target passes -ffp-contract=off (src/CMakeLists.txt, tests/CMakeLists.txt).
cmake -B "$repo/build-native" -S "$repo" -DCMAKE_CXX_FLAGS=-march=native
cmake --build "$repo/build-native" -j "$jobs" --target golden_test
ctest --test-dir "$repo/build-native" --output-on-failure \
  --timeout "$test_timeout" -R '^golden_test$'

echo "== golden digests with kernels.cc built without -march=native =="
# src/dataframe/CMakeLists.txt builds kernels.cc with -O3 -march=native
# when the compiler takes the flag; presetting the check's result to OFF
# builds it with the default flags instead.
cmake -B "$repo/build-generic" -S "$repo" -DATENA_HAS_MARCH_NATIVE=OFF
cmake --build "$repo/build-generic" -j "$jobs" --target golden_test
ctest --test-dir "$repo/build-generic" --output-on-failure \
  --timeout "$test_timeout" -R '^golden_test$'

echo "== bench binaries: one short run each, committed results untouched =="
# Every tier-1 bench binary runs once from the repository root at a minimal
# --benchmark_min_time and without --bench_json (bench_trainer only its
# cheapest row, the scaled benches at the smoke sizes ctest uses). A bench
# that still wrote its BENCH_<name>.json unasked would replace a committed
# result: the check fails if any BENCH_*.json in the root changed or
# appeared during the runs.
(
  cd "$repo"
  before="$(cksum BENCH_*.json)"
  ATENA_BENCH_ROWS=30000 build/bench/bench_dataframe \
    --benchmark_min_time=0.01 > /dev/null
  ATENA_BENCH_SCALE=2 build/bench/bench_env \
    --benchmark_min_time=0.01 > /dev/null
  ATENA_BENCH_INDEX_MAX=1000 build/bench/bench_index \
    --benchmark_min_time=0.01 > /dev/null
  build/bench/bench_nn --benchmark_min_time=0.01 > /dev/null
  ATENA_SERVE_LONG_STEPS=128 build/bench/bench_serve \
    --benchmark_min_time=0.01 > /dev/null
  build/bench/bench_trainer \
    --benchmark_filter='BM_TrainerSteps/actors:1/threads:1/' \
    --benchmark_min_time=0.01 > /dev/null
  if [ "$(cksum BENCH_*.json)" != "$before" ]; then
    echo "a bench binary changed a BENCH_*.json in the repository root" >&2
    exit 1
  fi
)

echo "== perfbench smoke: every workload at tiny sizes, traced and not =="
# Builds the benchmark into <repo>/.bench_build on first use.
(cd "$repo" && python3 perfbench/smoke_test.py)

echo "== asan: configure + build + ctest (ATENA_SANITIZE=address) =="
cmake -B "$repo/build-asan" -S "$repo" -DATENA_SANITIZE=address
cmake --build "$repo/build-asan" -j "$jobs"
ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" \
  --timeout "$test_timeout"

echo "== ubsan: configure + build + ctest (ATENA_SANITIZE=undefined) =="
cmake -B "$repo/build-ubsan" -S "$repo" -DATENA_SANITIZE=undefined \
  -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
cmake --build "$repo/build-ubsan" -j "$jobs"
# halt_on_error turns any UB report into a test failure rather than a log line.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "$repo/build-ubsan" --output-on-failure -j "$jobs" \
    --timeout "$test_timeout"

echo "== tsan: configure + build + threaded tests (ATENA_SANITIZE=thread) =="
# Only the binaries that actually spin up threads (the pool itself, the
# parallel trainer's stepping path, the shared display cache, the
# thread-crossing checkpoint resume, the guardrail fault-injection
# matrix with its multi-threaded rollback/recovery runs, the serving
# runtime's parallel environment stepping plus its fault-injection
# matrix — quarantine/deadline/shed/reload under worker threads — the
# notebook store one multi-threaded serving runtime shares across its
# threads (registration and retrieval), concurrent FilterRows/GroupAggregate
# calls on one shared table, the column-statistics pass's
# thread-local scratch and histogram arena plus the cache's shared Stats
# section under concurrent stepping, the golden fixtures' 4-thread
# training and journaled serving runs, which must match their 1-thread
# digests, and the FILTER reward's shared Deviation section under
# concurrent stepping) —
# TSan's ~10x slowdown makes a full suite sweep disproportionate. Each
# name is both a build target and a ctest name (atena_add_test), so the
# ctest regex is anchored to exactly these names.
tsan_tests=(thread_pool_test parallel_trainer_test display_cache_test
            checkpoint_test guardrails_test serve_test serve_faults_test
            serve_journal_test index_test dataframe_test stats_test
            golden_test reward_test)
cmake -B "$repo/build-tsan" -S "$repo" -DATENA_SANITIZE=thread
cmake --build "$repo/build-tsan" -j "$jobs" --target "${tsan_tests[@]}"
tsan_regex="^($(IFS='|'; echo "${tsan_tests[*]}"))\$"
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" \
    --timeout "$test_timeout" -R "$tsan_regex"

echo "== all checks passed =="
