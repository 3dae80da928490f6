// Micro-benchmarks of the EDA environment: observation encoding, single
// steps of each operation type, full episodes on cold (random-action) and
// hot (converged-policy replay) workloads, and the compound-reward path.
// Results, including the display-cache hit rate of each episode workload,
// go to the JSON summary named by --bench_json (see bench_json.h);
// scripts/bench.sh writes BENCH_env.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>

#include "bench_json.h"
#include "data/registry.h"
#include "eda/environment.h"
#include "eda/session.h"
#include "reward/compound.h"

namespace atena {
namespace {

EnvConfig BenchConfig() {
  EnvConfig config;
  config.episode_length = 1 << 20;  // benches manage episode boundaries
  return config;
}

/// Dataset scale for the *_Scaled benches: ATENA_BENCH_SCALE (default 100,
/// ~1.36M cyber4 rows). The ctest smoke run overrides this down to 2.
int BenchScale() {
  if (const char* env = std::getenv("ATENA_BENCH_SCALE")) {
    return std::max(1, std::atoi(env));
  }
  return 100;
}

const Dataset& ScaledDataset() {
  static const Dataset& dataset =
      *new Dataset(MakeDataset("cyber4", BenchScale()).value());
  return dataset;
}

/// Cache hit-rate over the benchmark's own lookups (delta across the run).
void ReportCacheHitRate(benchmark::State& state, const EdaEnvironment& env,
                        const DisplayCacheStats& before) {
  if (!env.display_cache()) return;
  const DisplayCacheStats after = env.display_cache()->stats();
  const uint64_t hits = after.hits - before.hits;
  const uint64_t lookups = hits + (after.misses - before.misses);
  state.counters["cache_hit_rate"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups);
}

void BM_EnvReset(benchmark::State& state) {
  auto dataset = MakeDataset("cyber4").value();
  EdaEnvironment env(dataset, BenchConfig());
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.Reset().size());
  }
}
BENCHMARK(BM_EnvReset);

void BM_EnvStepFilter(benchmark::State& state) {
  auto dataset = MakeDataset("cyber4").value();
  EdaEnvironment env(dataset, BenchConfig());
  int col = dataset.table->FindColumn("tcp_flags");
  EdaOperation filter =
      EdaOperation::Filter(col, CompareOp::kEq, Value(std::string("SYN")));
  for (auto _ : state) {
    env.Reset();
    benchmark::DoNotOptimize(env.StepOperation(filter).valid);
  }
}
BENCHMARK(BM_EnvStepFilter);

void BM_EnvStepGroup(benchmark::State& state) {
  auto dataset = MakeDataset("cyber4").value();
  EdaEnvironment env(dataset, BenchConfig());
  int col = dataset.table->FindColumn("source_ip");
  EdaOperation group = EdaOperation::Group(col, AggFunc::kCount, -1);
  for (auto _ : state) {
    env.Reset();
    benchmark::DoNotOptimize(env.StepOperation(group).valid);
  }
}
BENCHMARK(BM_EnvStepGroup);

// Scaled variants of the single-step benches: the same operations on a
// ~1.36M-row table. The display cache plus the chunked kernels are what
// keep these within a small factor of the small-table steps — the first
// execution pays the (zone-map-accelerated) scan, steady state is a
// signature lookup.

void BM_EnvStepFilterScaled(benchmark::State& state) {
  const Dataset& dataset = ScaledDataset();
  EdaEnvironment env(dataset, BenchConfig());
  int col = dataset.table->FindColumn("tcp_flags");
  EdaOperation filter =
      EdaOperation::Filter(col, CompareOp::kEq, Value(std::string("SYN")));
  for (auto _ : state) {
    env.Reset();
    benchmark::DoNotOptimize(env.StepOperation(filter).valid);
  }
  state.counters["table_rows"] =
      static_cast<double>(dataset.table->num_rows());
}
BENCHMARK(BM_EnvStepFilterScaled);

void BM_EnvStepGroupScaled(benchmark::State& state) {
  const Dataset& dataset = ScaledDataset();
  EdaEnvironment env(dataset, BenchConfig());
  int col = dataset.table->FindColumn("source_ip");
  EdaOperation group = EdaOperation::Group(col, AggFunc::kCount, -1);
  for (auto _ : state) {
    env.Reset();
    benchmark::DoNotOptimize(env.StepOperation(group).valid);
  }
  state.counters["table_rows"] =
      static_cast<double>(dataset.table->num_rows());
}
BENCHMARK(BM_EnvStepGroupScaled);

/// Cold workload: uniformly random actions, never-repeating trajectories.
/// The display cache helps only when sampled prefixes recur by chance.
void BM_EnvRandomEpisode(benchmark::State& state) {
  auto dataset = MakeDataset("flights4").value();
  EnvConfig config;
  config.episode_length = 12;
  EdaEnvironment env(dataset, config);
  Rng rng(1);
  const DisplayCacheStats before =
      env.display_cache() ? env.display_cache()->stats() : DisplayCacheStats{};
  for (auto _ : state) {
    env.Reset();
    while (!env.done()) {
      env.Step(SampleRandomAction(env.action_space(), &rng));
    }
  }
  state.SetItemsProcessed(state.iterations() * config.episode_length);
  ReportCacheHitRate(state, env, before);
}
BENCHMARK(BM_EnvRandomEpisode);

/// Same cold workload with the cache disabled: the recompute-everything
/// floor the cached variants are compared against.
void BM_EnvRandomEpisodeNoCache(benchmark::State& state) {
  auto dataset = MakeDataset("flights4").value();
  EnvConfig config;
  config.episode_length = 12;
  config.display_cache_enabled = false;
  EdaEnvironment env(dataset, config);
  Rng rng(1);
  for (auto _ : state) {
    env.Reset();
    while (!env.done()) {
      env.Step(SampleRandomAction(env.action_space(), &rng));
    }
  }
  state.SetItemsProcessed(state.iterations() * config.episode_length);
}
BENCHMARK(BM_EnvRandomEpisodeNoCache);

/// Hot workload: one concrete episode (as produced by a converged policy,
/// which replays a narrow action set) re-executed with the full compound
/// reward attached — the regime RL training spends most wall-clock in.
void BM_EnvConvergedReplay(benchmark::State& state) {
  auto dataset = MakeDataset("flights4").value();
  EnvConfig config;
  config.episode_length = 12;
  EdaEnvironment env(dataset, config);
  auto reward = MakeStandardReward(&env).value();
  env.SetRewardSignal(reward.get());
  Rng rng(7);
  std::vector<EdaOperation> ops;
  env.Reset();
  while (!env.done()) {
    ops.push_back(env.Step(SampleRandomAction(env.action_space(), &rng)).op);
  }
  const DisplayCacheStats before =
      env.display_cache() ? env.display_cache()->stats() : DisplayCacheStats{};
  for (auto _ : state) {
    env.Reset();
    double total = 0.0;
    for (const auto& op : ops) total += env.StepOperation(op).reward;
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * config.episode_length);
  ReportCacheHitRate(state, env, before);
}
BENCHMARK(BM_EnvConvergedReplay);

void BM_CompoundRewardEpisode(benchmark::State& state) {
  auto dataset = MakeDataset("flights4").value();
  EnvConfig config;
  config.episode_length = 12;
  EdaEnvironment env(dataset, config);
  auto reward = MakeStandardReward(&env).value();
  env.SetRewardSignal(reward.get());
  Rng rng(2);
  const DisplayCacheStats before =
      env.display_cache() ? env.display_cache()->stats() : DisplayCacheStats{};
  for (auto _ : state) {
    env.Reset();
    while (!env.done()) {
      env.Step(SampleRandomAction(env.action_space(), &rng));
    }
  }
  state.SetItemsProcessed(state.iterations() * config.episode_length);
  ReportCacheHitRate(state, env, before);
}
BENCHMARK(BM_CompoundRewardEpisode);

}  // namespace
}  // namespace atena

int main(int argc, char** argv) {
  const std::string json_path = atena::bench::TakeJsonPath(&argc, argv);
  const std::vector<std::string> args(argv, argv + argc);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  atena::bench::JsonFileReporter reporter(json_path, args);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
