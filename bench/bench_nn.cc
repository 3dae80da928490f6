// Micro-benchmarks of the neural substrate and the two actor
// architectures: forward/backward passes and optimizer steps at the sizes
// used by the experiments — including the pre-output vs flat-output width
// comparison at the heart of paper §5, and the per-sample vs batched
// acting comparison that motivates the stateless-graph substrate (one
// shared parameter store, per-call workspaces, ActBatch across actors).
// scripts/bench.sh writes the results to BENCH_nn.json (--bench_json).
#include <benchmark/benchmark.h>

#include "baselines/flat_policy.h"
#include "bench_json.h"
#include "core/twofold_policy.h"
#include "data/registry.h"
#include "nn/optimizer.h"

namespace atena {
namespace {

constexpr int kInFeatures = 128;
constexpr int kOutFeatures = 32;

std::unique_ptr<Sequential> BenchMlp(ParameterStore* store, Rng* rng) {
  return MakeMlp(kInFeatures, {64, 64}, kOutFeatures, store, "mlp", rng);
}

// ------------------------------------------------- forward: per-sample
// The historical acting pattern: one 1-row forward per sample.
void BM_MlpForwardPerSample(benchmark::State& state) {
  ParameterStore store;
  Rng rng(1);
  const int batch = static_cast<int>(state.range(0));
  auto net = BenchMlp(&store, &rng);
  Matrix input(batch, kInFeatures);
  for (double& x : input.data()) x = rng.NextGaussian();
  Workspace ws;
  Matrix row(1, kInFeatures);
  for (auto _ : state) {
    double sink = 0.0;
    for (int r = 0; r < batch; ++r) {
      std::copy(input.RowPtr(r), input.RowPtr(r) + kInFeatures,
                row.RowPtr(0));
      sink += net->Forward(row, &ws)(0, 0);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpForwardPerSample)->Arg(1)->Arg(8)->Arg(64);

// --------------------------------------------------- forward: batched
void BM_MlpForwardBatched(benchmark::State& state) {
  ParameterStore store;
  Rng rng(1);
  const int batch = static_cast<int>(state.range(0));
  auto net = BenchMlp(&store, &rng);
  Matrix input(batch, kInFeatures);
  for (double& x : input.data()) x = rng.NextGaussian();
  Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->Forward(input, &ws)(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpForwardBatched)->Arg(1)->Arg(8)->Arg(64);

// -------------------------------------------- forward+backward: batched
void BM_MlpForwardBackward(benchmark::State& state) {
  ParameterStore store;
  Rng rng(1);
  const int batch = static_cast<int>(state.range(0));
  auto net = BenchMlp(&store, &rng);
  Matrix input(batch, kInFeatures);
  for (double& x : input.data()) x = rng.NextGaussian();
  Matrix grad(batch, kOutFeatures, 0.01);
  Workspace ws;
  for (auto _ : state) {
    ZeroGradients(store.All());
    net->Forward(input, &ws);
    benchmark::DoNotOptimize(net->Backward(grad, &ws).size());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpForwardBackward)->Arg(1)->Arg(8)->Arg(64);

void BM_AdamStep(benchmark::State& state) {
  ParameterStore store;
  Rng rng(2);
  auto net = BenchMlp(&store, &rng);
  Matrix input(16, kInFeatures, 0.1);
  Workspace ws;
  net->Forward(input, &ws);
  net->Backward(Matrix(16, kOutFeatures, 0.01), &ws);
  Adam adam(1e-3);
  for (auto _ : state) {
    adam.Step(store.All());
  }
}
BENCHMARK(BM_AdamStep);

// ----------------------------------------------------- acting throughput
// Multi-actor lockstep acting: one Act call per actor (the historical
// trainer loop) vs a single ActBatch forward for all actors. The batched
// variant must stay ahead of the per-sample one at 4+ actors.

void BM_TwofoldActPerSample(benchmark::State& state) {
  auto dataset = MakeDataset("cyber2").value();
  EnvConfig config;
  EdaEnvironment env(dataset, config);
  const int actors = static_cast<int>(state.range(0));
  TwofoldPolicy policy(env.observation_dim(), env.action_space());
  Rng rng(3);
  auto obs = env.Reset();
  for (auto _ : state) {
    double sink = 0.0;
    for (int a = 0; a < actors; ++a) {
      sink += policy.Act(obs, &rng).log_prob;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * actors);
}
BENCHMARK(BM_TwofoldActPerSample)->Arg(1)->Arg(4)->Arg(16);

void BM_TwofoldActBatch(benchmark::State& state) {
  auto dataset = MakeDataset("cyber2").value();
  EnvConfig config;
  EdaEnvironment env(dataset, config);
  const int actors = static_cast<int>(state.range(0));
  TwofoldPolicy policy(env.observation_dim(), env.action_space());
  Rng rng(3);
  auto obs = env.Reset();
  Matrix observations(actors, static_cast<int>(obs.size()));
  for (int a = 0; a < actors; ++a) {
    std::copy(obs.begin(), obs.end(), observations.RowPtr(a));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy.ActBatch(observations, &rng).back().log_prob);
  }
  state.SetItemsProcessed(state.iterations() * actors);
}
BENCHMARK(BM_TwofoldActBatch)->Arg(1)->Arg(4)->Arg(16);

void BM_FlatPolicyAct(benchmark::State& state) {
  auto dataset = MakeDataset("cyber2").value();
  EnvConfig config;
  EdaEnvironment env(dataset, config);
  FlatPolicy::Options options;
  options.term_mode = FlatPolicy::TermMode::kExplicitTokens;
  FlatPolicy policy(env, options);
  Rng rng(4);
  auto obs = env.Reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Act(obs, &rng).log_prob);
  }
}
BENCHMARK(BM_FlatPolicyAct);

void BM_FlatActBatch(benchmark::State& state) {
  auto dataset = MakeDataset("cyber2").value();
  EnvConfig config;
  EdaEnvironment env(dataset, config);
  const int actors = static_cast<int>(state.range(0));
  FlatPolicy::Options options;
  options.term_mode = FlatPolicy::TermMode::kExplicitTokens;
  FlatPolicy policy(env, options);
  Rng rng(4);
  auto obs = env.Reset();
  Matrix observations(actors, static_cast<int>(obs.size()));
  for (int a = 0; a < actors; ++a) {
    std::copy(obs.begin(), obs.end(), observations.RowPtr(a));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy.ActBatch(observations, &rng).back().log_prob);
  }
  state.SetItemsProcessed(state.iterations() * actors);
}
BENCHMARK(BM_FlatActBatch)->Arg(4)->Arg(16);

void BM_TwofoldBatchUpdate(benchmark::State& state) {
  auto dataset = MakeDataset("cyber2").value();
  EnvConfig config;
  EdaEnvironment env(dataset, config);
  TwofoldPolicy policy(env.observation_dim(), env.action_space());
  Rng rng(5);
  auto obs = env.Reset();
  const int batch = 64;
  Matrix observations(batch, static_cast<int>(obs.size()));
  std::vector<ActionRecord> actions;
  std::vector<SampleGrad> grads(batch);
  for (int b = 0; b < batch; ++b) {
    PolicyStep step = policy.Act(obs, &rng);
    actions.push_back(step.action);
    for (size_t i = 0; i < obs.size(); ++i) {
      observations(b, static_cast<int>(i)) = obs[i];
    }
    grads[static_cast<size_t>(b)] = SampleGrad{0.01, -0.001, 0.02};
  }
  for (auto _ : state) {
    ZeroGradients(policy.Parameters());
    policy.ForwardBatch(observations, actions);
    policy.BackwardBatch(grads);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TwofoldBatchUpdate);

// The same PPO minibatch step on OTS-DRL's flat head (one softmax node per
// flat action, ~1,800 on cyber2 with explicit tokens).
void BM_FlatBatchUpdate(benchmark::State& state) {
  auto dataset = MakeDataset("cyber2").value();
  EnvConfig config;
  EdaEnvironment env(dataset, config);
  FlatPolicy::Options options;
  options.term_mode = FlatPolicy::TermMode::kExplicitTokens;
  FlatPolicy policy(env, options);
  Rng rng(5);
  auto obs = env.Reset();
  const int batch = 64;
  Matrix observations(batch, static_cast<int>(obs.size()));
  std::vector<ActionRecord> actions;
  std::vector<SampleGrad> grads(batch);
  for (int b = 0; b < batch; ++b) {
    PolicyStep step = policy.Act(obs, &rng);
    actions.push_back(step.action);
    std::copy(obs.begin(), obs.end(), observations.RowPtr(b));
    grads[static_cast<size_t>(b)] = SampleGrad{0.01, -0.001, 0.02};
  }
  for (auto _ : state) {
    ZeroGradients(policy.Parameters());
    policy.ForwardBatch(observations, actions);
    policy.BackwardBatch(grads);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_FlatBatchUpdate);

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
