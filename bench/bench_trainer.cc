// Macro-benchmark of ParallelPpoTrainer's lockstep training loop: full
// PPO training slices (batched acting + concurrent env stepping + update)
// at 1/2/4/8 actors across stepping-thread counts. Results go to the JSON
// summary named by --bench_json (scripts/bench.sh writes
// BENCH_trainer.json) with a steps_per_sec counter and, for multi-thread
// configs, scaling_efficiency relative to the same actor count at one
// thread (1.0 = perfect linear scaling; expect ~1/threads on machines
// with a single core — the thread count changes wall-clock only, never
// the training output).
//
// Every iteration builds fresh environments (hence a fresh, cold display
// cache) so configs are comparable: a warm shared cache would make later
// iterations — and later configs — progressively cheaper. Setup is
// excluded from the measurement via manual timing.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "bench_json.h"
#include "core/twofold_policy.h"
#include "data/registry.h"
#include "eda/environment.h"
#include "reward/compound.h"
#include "rl/parallel_trainer.h"

namespace atena {
namespace {

constexpr int kTotalSteps = 96;
constexpr uint64_t kEnvSeed = 9001;

/// The coherency classifier and calibrated component weights are shared
/// across all configs and iterations (training them dominates setup and
/// their scoring is stateless); each environment still gets its own
/// stateful CompoundReward clone, exactly as RunAtena wires multi-actor
/// training.
struct Fixture {
  Dataset dataset;
  std::shared_ptr<CompoundReward> reward_proto;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture{MakeDataset("flights4").value(), nullptr};
    EnvConfig config;
    config.seed = kEnvSeed;
    EdaEnvironment env(f->dataset, config);
    f->reward_proto = MakeStandardReward(&env).value();
    return f;
  }();
  return *fixture;
}

/// steps_per_sec of the single-thread run per actor count, used as the
/// scaling-efficiency baseline. Benchmarks run sequentially in
/// registration order, so the (a, 1) config always lands before (a, t>1).
std::map<int, double>& BaselineStepsPerSec() {
  static std::map<int, double> baselines;
  return baselines;
}

void BM_TrainerSteps(benchmark::State& state) {
  const int actors = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const Fixture& fixture = SharedFixture();

  double measured_seconds = 0.0;
  for (auto _ : state) {
    // Unmeasured setup: fresh envs (cold shared cache), reward clones,
    // policy, trainer.
    std::vector<std::unique_ptr<EdaEnvironment>> envs;
    std::vector<std::unique_ptr<CompoundReward>> rewards;
    std::vector<EdaEnvironment*> env_ptrs;
    for (int e = 0; e < actors; ++e) {
      EnvConfig config;
      config.seed = kEnvSeed + static_cast<uint64_t>(e);
      envs.push_back(std::make_unique<EdaEnvironment>(fixture.dataset, config));
      rewards.push_back(std::make_unique<CompoundReward>(
          fixture.reward_proto->coherency(), fixture.reward_proto->options()));
      envs.back()->SetRewardSignal(rewards.back().get());
      env_ptrs.push_back(envs.back().get());
    }
    TwofoldPolicy policy(env_ptrs[0]->observation_dim(),
                         env_ptrs[0]->action_space(),
                         TwofoldPolicy::Options());
    TrainerOptions options;
    options.total_steps = kTotalSteps;
    options.rollout_length = 48;
    options.minibatch_size = 32;
    options.final_eval_episodes = 0;
    options.num_threads = threads;
    ParallelPpoTrainer trainer(env_ptrs, &policy, options);

    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(trainer.Train().episodes);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(elapsed.count());
    measured_seconds += elapsed.count();
  }

  state.SetItemsProcessed(state.iterations() * kTotalSteps);
  const double steps_per_sec =
      measured_seconds > 0.0
          ? static_cast<double>(state.iterations() * kTotalSteps) /
                measured_seconds
          : 0.0;
  state.counters["steps_per_sec"] = steps_per_sec;
  auto& baselines = BaselineStepsPerSec();
  if (threads == 1) baselines[actors] = steps_per_sec;
  const auto baseline = baselines.find(actors);
  if (baseline != baselines.end() && baseline->second > 0.0) {
    state.counters["scaling_efficiency"] = steps_per_sec / baseline->second;
  }
}
BENCHMARK(BM_TrainerSteps)
    ->ArgNames({"actors", "threads"})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({8, 8})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

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
