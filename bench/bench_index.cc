// Micro-benchmark of the exact nearest-neighbour scans (DESIGN.md §14): the
// diversity reward's min-distance scan at growing display histories, and
// NotebookStore registration and top-5 retrieval at growing corpus sizes.
// Both scans are flat and linear in what they scan; these rows are what
// that costs at the sizes the product serves (a 13-display episode, a few
// hundred retired notebooks) and well past them.
//
// The histories are real: each is the display_vectors() of an
// EdaEnvironment over flights4 driven by seeded random actions, so BACK and
// repeated operations reproduce earlier displays bit for bit, as they do in
// served sessions. BM_DiversityMinDistance times DiversityReward on the
// last display of a `history`-display session against every display before
// it, cycling over kSessions independently seeded sessions.
//
// The notebooks are real too: 12-operation random-action episodes on cyber1
// (13 display vectors each). `distinct:0` registers that many different
// notebooks; `distinct:40` cycles through the first 40, the duplicate-heavy
// corpus. BM_NotebookRegister times registering the whole corpus into a
// fresh store (items = notebooks); BM_NotebookTopK queries a built store
// with fresh notebooks. Results go to the JSON summary named by
// --bench_json; scripts/bench.sh writes BENCH_index.json.
//
// ATENA_BENCH_INDEX_MAX drops histories and corpora above the given size
// (the smoke test pins 1000 so ctest stays fast).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "bench_json.h"
#include "common/random.h"
#include "data/registry.h"
#include "eda/environment.h"
#include "index/notebook_store.h"
#include "reward/diversity.h"

namespace atena {
namespace {

constexpr int kSessions = 8;
constexpr int kQueryNotebooks = 16;
constexpr size_t kDuplicateDistinct = 40;

using Sequence = std::vector<std::vector<double>>;

long EnvScale(const char* name, long fallback) {
  if (const char* env = std::getenv(name)) {
    const long value = std::atol(env);
    if (value > 0) return value;
  }
  return fallback;
}

/// kSessions environments over flights4, each stepped until it holds
/// `history` displays. Cached: every repetition scans the same histories.
const std::vector<std::unique_ptr<EdaEnvironment>>& Sessions(size_t history) {
  static auto* cache =
      new std::map<size_t, std::vector<std::unique_ptr<EdaEnvironment>>>();
  auto& sessions = (*cache)[history];
  if (!sessions.empty()) return sessions;
  const Dataset dataset = MakeDataset("flights4").value();
  EnvConfig config;
  config.episode_length = static_cast<int>(history) - 1;
  config.stats_row_cap = 256;
  for (int s = 0; s < kSessions; ++s) {
    auto env = std::make_unique<EdaEnvironment>(dataset, config);
    if (!sessions.empty()) {
      env->SetDisplayCache(sessions.front()->display_cache());
    }
    env->Reset();
    Rng actions(history * kSessions + static_cast<size_t>(s));
    while (!env->done()) {
      env->Step(SampleRandomAction(env->action_space(), &actions));
    }
    sessions.push_back(std::move(env));
  }
  return sessions;
}

void BM_DiversityMinDistance(benchmark::State& state) {
  const size_t history = static_cast<size_t>(state.range(0));
  const auto& sessions = Sessions(history);
  std::vector<RewardContext> contexts(sessions.size());
  for (size_t s = 0; s < sessions.size(); ++s) {
    contexts[s].env = sessions[s].get();
  }
  size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiversityReward(contexts[cursor]));
    cursor = cursor + 1 < contexts.size() ? cursor + 1 : 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["history"] =
      static_cast<double>(sessions.front()->display_vectors().size());
}

/// The display sequences of `count` random-action 12-operation episodes on
/// cyber1, from the action stream seeded with `seed`. Cached per seed and
/// grown on demand, so smaller corpora are prefixes of larger ones.
const std::vector<Sequence>& RealNotebooks(uint64_t seed, size_t count) {
  struct Source {
    std::unique_ptr<EdaEnvironment> env;
    Rng actions{0};
    std::vector<Sequence> notebooks;
  };
  static auto* sources = new std::map<uint64_t, Source>();
  Source& source = (*sources)[seed];
  if (!source.env) {
    source.env = std::make_unique<EdaEnvironment>(
        MakeDataset("cyber1").value(), EnvConfig());
    source.actions = Rng(seed);
  }
  while (source.notebooks.size() < count) {
    EdaEnvironment& env = *source.env;
    env.Reset();
    while (!env.done()) {
      env.Step(SampleRandomAction(env.action_space(), &source.actions));
    }
    source.notebooks.push_back(env.display_vectors());
  }
  return source.notebooks;
}

/// A `corpus`-notebook corpus: the first `corpus` real notebooks, or, for
/// the duplicate-heavy corpus, the first `distinct` repeated in turn.
std::vector<const Sequence*> Corpus(size_t corpus, size_t distinct) {
  const auto& real = RealNotebooks(1, distinct > 0 ? distinct : corpus);
  std::vector<const Sequence*> notebooks(corpus);
  for (size_t i = 0; i < corpus; ++i) {
    notebooks[i] = &real[distinct > 0 ? i % distinct : i];
  }
  return notebooks;
}

void BM_NotebookRegister(benchmark::State& state) {
  const auto corpus = Corpus(static_cast<size_t>(state.range(0)),
                             static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    NotebookStore store;
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < corpus.size(); ++i) {
      store.Register(i, i, *corpus[i]);
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(elapsed.count());
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
  state.counters["corpus"] = static_cast<double>(corpus.size());
}

void BM_NotebookTopK(benchmark::State& state) {
  const auto corpus = Corpus(static_cast<size_t>(state.range(0)),
                             static_cast<size_t>(state.range(1)));
  NotebookStore store;
  for (size_t i = 0; i < corpus.size(); ++i) store.Register(i, i, *corpus[i]);
  // Fresh notebooks from another action stream: none is in the corpus.
  const auto& queries = RealNotebooks(2, kQueryNotebooks);
  size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.TopK(queries[cursor], 5));
    cursor = cursor + 1 < queries.size() ? cursor + 1 : 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["corpus"] = static_cast<double>(corpus.size());
}

void RegisterBenchmarks() {
  const long max_size = EnvScale("ATENA_BENCH_INDEX_MAX",
                                 std::numeric_limits<long>::max());
  auto* diversity = benchmark::RegisterBenchmark("BM_DiversityMinDistance",
                                                 BM_DiversityMinDistance);
  diversity->ArgNames({"history"});
  for (const long history : {13L, 100L, 1000L}) {
    if (history <= max_size) diversity->Args({history});
  }
  diversity->Unit(benchmark::kMicrosecond);

  auto* registration = benchmark::RegisterBenchmark("BM_NotebookRegister",
                                                    BM_NotebookRegister);
  auto* retrieval =
      benchmark::RegisterBenchmark("BM_NotebookTopK", BM_NotebookTopK);
  for (auto* bench : {registration, retrieval}) {
    bench->ArgNames({"corpus", "distinct"});
    for (const long distinct : {0L, static_cast<long>(kDuplicateDistinct)}) {
      for (const long corpus : {100L, 1000L, 10000L}) {
        if (corpus <= max_size) bench->Args({corpus, distinct});
      }
    }
    bench->Unit(benchmark::kMicrosecond);
  }
  registration->UseManualTime();
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
