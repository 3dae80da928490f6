// Micro-benchmark of the display-vector index (src/index/, DESIGN.md §14):
// exact min-distance queries (the diversity reward's inner loop) scalar vs
// indexed at growing history lengths, and top-k notebook retrieval at
// growing corpus sizes. Both paths return bit-identical results
// (tests/index_test.cc); this bench measures only the cost.
//
// The diversity histories are real: each one is the display_vectors() of
// an EdaEnvironment driven for N random-action steps over flights4 — the
// duplicate-heavy, clustered distribution the index actually serves (BACK
// and repeated operations reproduce earlier displays bit-for-bit), not a
// synthetic uniform cloud. Queries replay the reward's access pattern:
// display i against displays 0..i-1.
//
// The headline counter is `indexed_speedup` on the 10000-step history —
// the scalar scan is linear in history length while the ball-bounded
// descent re-checks a near-constant candidate set (`vectors_checked` is
// emitted per config so the sub-linear claim is visible directly, not
// just through wall-clock). Results go to the JSON summary named by
// --bench_json; scripts/bench.sh writes BENCH_index.json.
//
// Scale overrides: ATENA_BENCH_INDEX_MAX drops registered history/corpus
// sizes above the given value (the smoke test pins 1000 so ctest stays
// fast); ATENA_BENCH_HISTORY / ATENA_BENCH_CORPUS each add one extra
// size; ATENA_BENCH_DIM sets the synthetic notebook-corpus dimension.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <limits>
#include <map>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/math_utils.h"
#include "common/random.h"
#include "data/registry.h"
#include "eda/environment.h"
#include "index/notebook_store.h"
#include "index/vector_index.h"

namespace atena {
namespace {

long EnvScale(const char* name, long fallback) {
  if (const char* env = std::getenv(name)) {
    const long value = std::atol(env);
    if (value > 0) return value;
  }
  return fallback;
}

/// Display history of a real session: one EdaEnvironment stepped `count`
/// times with seeded random actions. Cached — both the scalar and the
/// indexed run (and every repetition) measure against the same vectors.
const std::vector<std::vector<double>>& RealHistory(size_t count) {
  static auto* cache =
      new std::map<size_t, std::vector<std::vector<double>>>();
  const auto it = cache->find(count);
  if (it != cache->end()) return it->second;

  EnvConfig config;
  config.episode_length = static_cast<int>(count);
  config.stats_row_cap = 256;
  // The generator itself must not pay for (or depend on) the index.
  config.diversity_index_threshold = INT_MAX;
  EdaEnvironment env(MakeDataset("flights4").value(), config);
  env.Reset();
  Rng actions(count);
  for (size_t i = 0; i < count; ++i) {
    env.Step(SampleRandomAction(env.action_space(), &actions));
  }
  return (*cache)[count] = env.display_vectors();
}

/// Synthetic notebook corpus vectors: clustered around a few dozen
/// operation neighborhoods with exact duplicates mixed in — the shape of
/// display sequences across many retired sessions.
std::vector<std::vector<double>> SyntheticSequence(size_t count, size_t dim,
                                                   Rng* rng) {
  constexpr size_t kClusters = 32;
  constexpr double kNoise = 0.05;
  static auto* centers = [] {
    Rng center_rng(0xc0ffee);
    auto* all = new std::vector<std::vector<double>>(kClusters);
    for (auto& center : *all) {
      center.resize(256);
      for (double& x : center) x = center_rng.NextDouble(-1.0, 1.0);
    }
    return all;
  }();
  std::vector<std::vector<double>> vectors;
  vectors.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> v(dim);
    const auto& center = (*centers)[static_cast<size_t>(rng->NextBounded(kClusters))];
    for (size_t d = 0; d < dim; ++d) {
      v[d] = center[d % center.size()] + rng->NextDouble(-kNoise, kNoise);
    }
    vectors.push_back(std::move(v));
  }
  return vectors;
}

/// seconds/query of the scalar run per history length — the
/// indexed_speedup baseline (benchmarks run in registration order, so the
/// scalar run of each length lands first).
std::map<int64_t, double>& ScalarSecondsPerQuery() {
  static auto* baselines = new std::map<int64_t, double>();
  return *baselines;
}

/// The flat scan DiversityReward's scalar path performs: running min over
/// the bounded kernel in id order.
double ScalarMinSquared(const std::vector<std::vector<double>>& vectors,
                        const std::vector<double>& query, size_t id_limit) {
  double best = std::numeric_limits<double>::infinity();
  const size_t limit = std::min(id_limit, vectors.size());
  for (size_t i = 0; i < limit; ++i) {
    const double sq = SquaredEuclideanDistanceBounded(query, vectors[i], best);
    if (sq < best) best = sq;
  }
  return best;
}

void BM_DiversityMinDistance(benchmark::State& state) {
  const size_t history = static_cast<size_t>(state.range(0));
  const bool indexed = state.range(1) != 0;
  const auto& vectors = RealHistory(history);
  VectorIndex index;
  if (indexed) {
    // Incremental growth, exactly like the environment's per-session
    // index (one Insert per step).
    for (const auto& v : vectors) index.Insert(v);
  }

  VectorIndex::QueryStats stats;
  size_t cursor = 0;
  int64_t queries = 0;
  double total_seconds = 0.0;
  for (auto _ : state) {
    cursor = cursor + 1 < vectors.size() ? cursor + 1 : 1;
    const auto start = std::chrono::steady_clock::now();
    const double min_sq =
        indexed ? index.MinSquaredDistance(vectors[cursor], cursor, &stats)
                : ScalarMinSquared(vectors, vectors[cursor], cursor);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(min_sq);
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    state.SetIterationTime(seconds);
    total_seconds += seconds;
    ++queries;
  }

  state.SetItemsProcessed(queries);
  state.counters["history"] = static_cast<double>(vectors.size());
  const double seconds_per_query =
      queries > 0 ? total_seconds / static_cast<double>(queries) : 0.0;
  if (!indexed) {
    // Benchmarks run in registration order, so the scalar run of each
    // history length lands before its indexed twin.
    ScalarSecondsPerQuery()[state.range(0)] = seconds_per_query;
  } else if (seconds_per_query > 0.0) {
    const auto baseline = ScalarSecondsPerQuery().find(state.range(0));
    if (baseline != ScalarSecondsPerQuery().end()) {
      state.counters["indexed_speedup"] =
          baseline->second / seconds_per_query;
    }
  }
  if (indexed && queries > 0) {
    state.counters["vectors_checked_per_query"] =
        static_cast<double>(stats.vectors_checked) /
        static_cast<double>(queries);
    state.counters["nodes_visited_per_query"] =
        static_cast<double>(stats.nodes_visited) /
        static_cast<double>(queries);
    state.counters["nodes_pruned_per_query"] =
        static_cast<double>(stats.nodes_pruned) /
        static_cast<double>(queries);
  }
}

void BM_NotebookTopK(benchmark::State& state) {
  const size_t corpus = static_cast<size_t>(state.range(0));
  const size_t dim = static_cast<size_t>(EnvScale("ATENA_BENCH_DIM", 48));
  NotebookStore store;
  Rng rng(corpus);
  for (size_t i = 0; i < corpus; ++i) {
    store.Register(i, i, SyntheticSequence(8, dim, &rng));
  }
  Rng query_rng(0xfeed);
  const auto query = SyntheticSequence(8, dim, &query_rng);
  int64_t queries = 0;
  for (auto _ : state) {
    const auto matches = store.TopK(query, 5);
    benchmark::DoNotOptimize(matches);
    ++queries;
  }
  state.SetItemsProcessed(queries);
  state.counters["corpus"] = static_cast<double>(corpus);
}

void RegisterBenchmarks() {
  const long max_size = EnvScale("ATENA_BENCH_INDEX_MAX",
                                 std::numeric_limits<long>::max());
  std::vector<long> histories = {100, 1000, 10000};
  const long extra_history = EnvScale("ATENA_BENCH_HISTORY", 0);
  if (extra_history > 0) histories.push_back(extra_history);
  auto* diversity = benchmark::RegisterBenchmark("BM_DiversityMinDistance",
                                                 BM_DiversityMinDistance);
  diversity->ArgNames({"history", "indexed"});
  for (long history : histories) {
    if (history > max_size) continue;
    diversity->Args({history, 0})->Args({history, 1});
  }
  diversity->UseManualTime()->Unit(benchmark::kMicrosecond);

  std::vector<long> corpora = {100, 1000, 10000};
  const long extra_corpus = EnvScale("ATENA_BENCH_CORPUS", 0);
  if (extra_corpus > 0) corpora.push_back(extra_corpus);
  auto* retrieval =
      benchmark::RegisterBenchmark("BM_NotebookTopK", BM_NotebookTopK);
  retrieval->ArgNames({"corpus"});
  for (long corpus : corpora) {
    if (corpus > max_size) continue;
    retrieval->Args({corpus});
  }
  retrieval->Unit(benchmark::kMicrosecond);
}

}  // namespace
}  // namespace atena

int main(int argc, char** argv) {
  const std::string json_path = atena::bench::TakeJsonPath(&argc, argv);
  const std::vector<std::string> args(argv, argv + argc);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  atena::RegisterBenchmarks();
  atena::bench::JsonFileReporter reporter(json_path, args);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
