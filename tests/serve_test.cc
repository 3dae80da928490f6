// Determinism and load-path tests for the multi-session serving runtime
// (src/serve/). The contract under test: a session's trace is a pure
// function of its SessionConfig and the snapshot — bit-identical to the
// single-session serial reference no matter how many sessions share the
// batch, which thread count steps them, or when they join or leave.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/flat_policy.h"
#include "common/file_io.h"
#include "core/twofold_policy.h"
#include "data/registry.h"
#include "nn/serialization.h"
#include "reward/compound.h"
#include "rl/checkpoint.h"
#include "serve/session_manager.h"
#include "serve/snapshot.h"

namespace atena {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveIfExists(const std::string& path) {
  if (FileExists(path)) std::remove(path.c_str());
}

SnapshotOptions SmallOptions() {
  SnapshotOptions options;
  options.env.episode_length = 6;
  options.env.num_term_bins = 4;
  options.policy.hidden = {24, 24};
  return options;
}

std::shared_ptr<PolicySnapshot> SmallSnapshot(
    const std::string& dataset = "cyber2") {
  return std::make_shared<PolicySnapshot>(MakeDataset(dataset).value(),
                                          SmallOptions());
}

// The mixed workload every determinism test serves: staggered step budgets
// (some spanning several episodes), interleaved greedy and sampling
// sessions.
std::vector<SessionConfig> MixedConfigs(int count) {
  std::vector<SessionConfig> configs;
  for (int i = 0; i < count; ++i) {
    SessionConfig config;
    config.seed = 900 + static_cast<uint64_t>(i);
    config.max_steps = 4 + (i % 3) * 5;  // 4, 9 or 14 steps; episodes are 6.
    config.greedy = (i % 2) == 0;
    configs.push_back(config);
  }
  return configs;
}

void ExpectTracesEqual(const SessionTrace& got, const SessionTrace& want,
                       const Table& table, const std::string& context) {
  ASSERT_EQ(got.steps.size(), want.steps.size()) << context;
  for (size_t i = 0; i < got.steps.size(); ++i) {
    const ServedStep& g = got.steps[i];
    const ServedStep& w = want.steps[i];
    EXPECT_EQ(g.op.Describe(table), w.op.Describe(table))
        << context << " step " << i;
    EXPECT_EQ(g.valid, w.valid) << context << " step " << i;
    EXPECT_EQ(g.reward, w.reward) << context << " step " << i;
    EXPECT_EQ(g.display_signature, w.display_signature)
        << context << " step " << i;
  }
  EXPECT_EQ(got.total_reward, want.total_reward) << context;
}

/// Indexes finished sessions by seed, asserting each completed cleanly —
/// the common case for determinism tests, where any quarantine or
/// deadline retirement is itself a failure.
std::map<uint64_t, SessionTrace> BySeed(std::vector<SessionOutcome> outcomes) {
  std::map<uint64_t, SessionTrace> by_seed;
  for (auto& outcome : outcomes) {
    EXPECT_EQ(outcome.reason, RetireReason::kCompleted)
        << "seed " << outcome.trace.seed << ": "
        << RetireReasonName(outcome.reason) << " "
        << outcome.status.ToString();
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    by_seed[outcome.trace.seed] = std::move(outcome.trace);
  }
  return by_seed;
}

uint64_t MustAdmit(SessionManager& manager, const SessionConfig& config) {
  Result<uint64_t> id = manager.Admit(config);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.ok() ? id.value() : 0;
}

TEST(ServeDeterminismTest, BatchedTracesMatchSerialReference) {
  auto snapshot = SmallSnapshot();
  SessionManager manager(snapshot, ServeOptions{});
  const auto configs = MixedConfigs(6);
  for (const auto& config : configs) MustAdmit(manager, config);
  manager.Drain();
  auto by_seed = BySeed(manager.TakeCompleted());
  ASSERT_EQ(by_seed.size(), configs.size());

  const Table& table = *snapshot->dataset().table;
  for (const auto& config : configs) {
    SessionTrace reference =
        ServeSingleSessionSerial(*snapshot, config, /*reward=*/nullptr);
    ExpectTracesEqual(by_seed.at(config.seed), reference, table,
                      "seed " + std::to_string(config.seed));
  }
}

// The tick acts each snapshot group in row blocks of whole 4-row tiles,
// one block per pool thread, and steps, records and journal-encodes every
// session on the pool. Live-session counts that cross the block and tile
// boundaries — 1 and 3 pad a single tile, 5 spans two tiles, 17 ends in a
// one-row tile, 64 fills four blocks — must serve the same traces and
// write the same journal bytes at every thread count.
TEST(ServeDeterminismTest, ThreadCountDoesNotChangeTraces) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  for (int live : {1, 3, 5, 17, 64}) {
    const auto configs = MixedConfigs(live);
    std::map<uint64_t, SessionTrace> reference;
    std::string reference_journal;
    for (int threads : {1, 2, 4}) {
      const std::string context = std::to_string(live) + " sessions, " +
                                  std::to_string(threads) + " threads";
      const std::string path = TempPath("thread_count_" +
                                        std::to_string(live) + "_" +
                                        std::to_string(threads) + ".sjl");
      RemoveIfExists(path);
      RemoveIfExists(path + ".prev");
      ServeOptions options;
      options.num_threads = threads;
      options.journal_path = path;
      std::map<uint64_t, SessionTrace> by_seed;
      {
        SessionManager manager(snapshot, options);
        for (const auto& config : configs) MustAdmit(manager, config);
        manager.Drain();
        by_seed = BySeed(manager.TakeCompleted());
        EXPECT_TRUE(manager.journal_healthy()) << context;
      }
      std::string journal;
      ASSERT_TRUE(ReadFileToString(path, &journal).ok()) << context;
      RemoveIfExists(path);
      RemoveIfExists(path + ".prev");
      ASSERT_EQ(by_seed.size(), configs.size()) << context;
      if (reference.empty()) {
        reference = std::move(by_seed);
        reference_journal = std::move(journal);
        continue;
      }
      for (const auto& [seed, trace] : by_seed) {
        ExpectTracesEqual(trace, reference.at(seed), table,
                          context + ", seed " + std::to_string(seed));
      }
      EXPECT_TRUE(journal == reference_journal)
          << context << ": journal differs from the 1-thread journal ("
          << journal.size() << " vs " << reference_journal.size()
          << " bytes)";
    }
  }
}

// Sessions joining mid-serving (changing every later batch's composition
// and row order) must not perturb anyone's trace — neither the sessions
// already running nor the late arrivals.
TEST(ServeDeterminismTest, MidServingAdmissionsDoNotChangeTraces) {
  auto snapshot = SmallSnapshot();
  const auto configs = MixedConfigs(6);

  SessionManager manager(snapshot, ServeOptions{});
  size_t admitted = 0;
  for (; admitted < 2; ++admitted) MustAdmit(manager, configs[admitted]);
  // Two ticks alone, then two more joiners, two further ticks, the rest.
  manager.Tick();
  manager.Tick();
  for (; admitted < 4; ++admitted) MustAdmit(manager, configs[admitted]);
  manager.Tick();
  manager.Tick();
  for (; admitted < configs.size(); ++admitted) {
    manager.Admit(configs[admitted]);
  }
  manager.Drain();
  auto by_seed = BySeed(manager.TakeCompleted());
  ASSERT_EQ(by_seed.size(), configs.size());

  const Table& table = *snapshot->dataset().table;
  for (const auto& config : configs) {
    SessionTrace reference =
        ServeSingleSessionSerial(*snapshot, config, /*reward=*/nullptr);
    ExpectTracesEqual(by_seed.at(config.seed), reference, table,
                      "staggered seed " + std::to_string(config.seed));
  }
}

// Same contract with real reward scoring attached: per-session rewards are
// part of the trace and must be batch-composition-independent too.
TEST(ServeDeterminismTest, RewardScoredTracesMatchSerialReference) {
  auto snapshot = SmallSnapshot();
  // Train the coherency classifier once; each session gets its own
  // CompoundReward clone around the shared (const) classifier, mirroring
  // what multi-actor training does.
  EnvConfig env_config = snapshot->options().env;
  EdaEnvironment proto_env(snapshot->dataset(), env_config);
  auto proto = MakeStandardReward(&proto_env);
  ASSERT_TRUE(proto.ok()) << proto.status().message();
  auto classifier = proto.value()->coherency();

  ServeOptions options;
  options.reward_factory = [classifier]() {
    return std::make_shared<CompoundReward>(classifier);
  };
  SessionManager manager(snapshot, options);
  const auto configs = MixedConfigs(4);
  for (const auto& config : configs) MustAdmit(manager, config);
  manager.Drain();
  auto by_seed = BySeed(manager.TakeCompleted());
  ASSERT_EQ(by_seed.size(), configs.size());

  const Table& table = *snapshot->dataset().table;
  for (const auto& config : configs) {
    CompoundReward reward(classifier);
    SessionTrace reference =
        ServeSingleSessionSerial(*snapshot, config, &reward);
    ExpectTracesEqual(by_seed.at(config.seed), reference, table,
                      "reward seed " + std::to_string(config.seed));
    EXPECT_NE(by_seed.at(config.seed).total_reward, 0.0);
  }
}

TEST(ServeDeterminismTest, RecycledEnvironmentsServeIdenticalTraces) {
  auto snapshot = SmallSnapshot();
  SessionConfig config;
  config.seed = 77;
  config.max_steps = 9;
  SessionManager manager(snapshot, ServeOptions{});
  // Serve the same session twice: the second admission recycles the first
  // one's environment from the pool and must reproduce the trace exactly.
  MustAdmit(manager, config);
  manager.Drain();
  auto first = manager.TakeCompleted();
  MustAdmit(manager, config);
  manager.Drain();
  auto second = manager.TakeCompleted();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  ExpectTracesEqual(second[0].trace, first[0].trace,
                    *snapshot->dataset().table, "recycled env");
}

// The shared cache takes its configuration, byte budget included, from the
// snapshot's EnvConfig. A tiny budget must keep resident bytes near
// it by evicting, and must change no trace: evicted entries recompute
// bit-identically. The budget is a quarter of what the unbounded run keeps
// resident, so the test holds whatever the cache's per-entry estimates.
TEST(ServeDeterminismTest, CacheByteBudgetBoundsResidencyNotTraces) {
  auto serve = [&](size_t max_bytes) {
    SnapshotOptions options = SmallOptions();
    options.env.display_cache_max_bytes = max_bytes;
    options.env.display_cache_shards = 1;  // one shard: the budget is exact
    auto snapshot = std::make_shared<PolicySnapshot>(
        MakeDataset("cyber2").value(), options);
    SessionManager manager(snapshot, ServeOptions{});
    for (const auto& config : MixedConfigs(8)) MustAdmit(manager, config);
    manager.Drain();
    return std::make_pair(BySeed(manager.TakeCompleted()),
                          manager.display_cache()->stats());
  };
  const auto [unbounded, unbounded_stats] = serve(0);
  EXPECT_EQ(unbounded_stats.evictions, 0u);
  const size_t tiny_budget = unbounded_stats.resident_bytes / 4;
  ASSERT_GT(tiny_budget, 0u);
  const auto [tiny, tiny_stats] = serve(tiny_budget);

  EXPECT_GT(tiny_stats.evictions, 0u);
  // The cache may exceed its budget only by keeping one oversized entry.
  EXPECT_TRUE(tiny_stats.resident_bytes <= tiny_budget ||
              tiny_stats.entries == 1)
      << tiny_stats.resident_bytes << " bytes in " << tiny_stats.entries
      << " entries";

  auto dataset = MakeDataset("cyber2").value();
  ASSERT_EQ(tiny.size(), unbounded.size());
  for (const auto& [seed, trace] : unbounded) {
    ExpectTracesEqual(tiny.at(seed), trace, *dataset.table,
                      "budget seed " + std::to_string(seed));
  }
}

// The graceful-drain path of the serving binary: every admitted session
// runs to completion and emits exactly one kCompleted outcome.
TEST(ServeLifecycleTest, DrainEmitsAllOutcomes) {
  auto snapshot = SmallSnapshot();
  SessionManager manager(snapshot, ServeOptions{});
  const auto configs = MixedConfigs(5);
  for (const auto& config : configs) MustAdmit(manager, config);
  manager.Drain();
  EXPECT_EQ(manager.active_sessions(), 0);
  auto outcomes = manager.TakeCompleted();
  ASSERT_EQ(outcomes.size(), configs.size());
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.reason, RetireReason::kCompleted);
    EXPECT_TRUE(outcome.status.ok());
  }
  EXPECT_EQ(manager.stats().completed, static_cast<int64_t>(configs.size()));
  // TakeCompleted moves: a second call is empty.
  EXPECT_TRUE(manager.TakeCompleted().empty());
}

// The second-stop-request path: in-flight sessions are retired immediately
// with their partial notebooks flagged kHardStopped, not kCompleted.
TEST(ServeLifecycleTest, HardStopFlagsPartialOutcomes) {
  auto snapshot = SmallSnapshot();
  SessionManager manager(snapshot, ServeOptions{});
  const auto configs = MixedConfigs(4);
  for (const auto& config : configs) MustAdmit(manager, config);
  manager.Tick();
  manager.Tick();
  manager.Tick();
  // The shortest budget in MixedConfigs is 4 steps, so after 3 ticks
  // every session is still live with a 3-step partial notebook.
  const int live = manager.active_sessions();
  EXPECT_GT(live, 0);
  EXPECT_EQ(manager.HardStop(), live);
  EXPECT_EQ(manager.active_sessions(), 0);

  auto by_seed = std::map<uint64_t, SessionOutcome>();
  for (auto& outcome : manager.TakeCompleted()) {
    by_seed[outcome.trace.seed] = std::move(outcome);
  }
  ASSERT_EQ(by_seed.size(), configs.size());
  int hard_stopped = 0;
  for (const auto& config : configs) {
    const SessionOutcome& outcome = by_seed.at(config.seed);
    EXPECT_TRUE(outcome.status.ok());
    if (outcome.reason == RetireReason::kHardStopped) {
      ++hard_stopped;
      // Partial notebook: exactly the 3 ticks it was stepped through.
      EXPECT_EQ(outcome.trace.steps.size(), 3u) << "seed " << config.seed;
    } else {
      EXPECT_EQ(outcome.reason, RetireReason::kCompleted);
      EXPECT_EQ(outcome.trace.steps.size(),
                static_cast<size_t>(config.max_steps));
    }
  }
  EXPECT_EQ(hard_stopped, live);
  EXPECT_EQ(manager.stats().hard_stopped, static_cast<int64_t>(live));
}

void ExpectSameStep(const PolicyStep& got, const PolicyStep& want,
                    const std::string& context) {
  EXPECT_EQ(got.action.is_concrete, want.action.is_concrete) << context;
  EXPECT_EQ(got.action.flat_index, want.action.flat_index) << context;
  const EnvAction& g = got.action.structured;
  const EnvAction& w = want.action.structured;
  EXPECT_EQ(g.type, w.type) << context;
  EXPECT_EQ(g.filter_column, w.filter_column) << context;
  EXPECT_EQ(g.filter_op, w.filter_op) << context;
  EXPECT_EQ(g.filter_bin, w.filter_bin) << context;
  EXPECT_EQ(g.group_column, w.group_column) << context;
  EXPECT_EQ(g.agg_func, w.agg_func) << context;
  EXPECT_EQ(g.agg_column, w.agg_column) << context;
  EXPECT_EQ(got.log_prob, want.log_prob) << context;
  EXPECT_EQ(got.value, want.value) << context;
}

// Every acting entry point of `policy` on one batch against the
// per-row-stream ActBatch, the one acting method: per-sample Act and
// ActGreedy row by row, and the shared-stream ActBatch against a stream
// vector that repeats one pointer — steps and stream draws bit for bit.
void ExpectEntryPointsAgree(Policy* policy, const Matrix& observations,
                            const std::string& label) {
  const int rows = observations.rows();
  // Odd rows sample from private streams, even rows are greedy (null).
  std::vector<Rng> streams(static_cast<size_t>(rows));
  std::vector<Rng*> rngs(static_cast<size_t>(rows), nullptr);
  for (int r = 1; r < rows; r += 2) {
    streams[static_cast<size_t>(r)] = Rng(5000 + static_cast<uint64_t>(r));
    rngs[static_cast<size_t>(r)] = &streams[static_cast<size_t>(r)];
  }
  // Per-sample reference with copies of the same stream states.
  std::vector<Rng> reference_streams = streams;

  std::vector<std::vector<double>> row_vectors;
  for (int r = 0; r < rows; ++r) {
    row_vectors.emplace_back(observations.RowPtr(r),
                             observations.RowPtr(r) + observations.cols());
  }

  const std::vector<PolicyStep> batched = policy->ActBatch(observations, rngs);
  ASSERT_EQ(batched.size(), static_cast<size_t>(rows)) << label;
  for (int r = 0; r < rows; ++r) {
    const std::string context = label + " row " + std::to_string(r);
    const std::vector<double>& row = row_vectors[static_cast<size_t>(r)];
    Rng* reference = rngs[static_cast<size_t>(r)] == nullptr
                         ? nullptr
                         : &reference_streams[static_cast<size_t>(r)];
    ExpectSameStep(batched[static_cast<size_t>(r)],
                   reference == nullptr ? policy->ActGreedy(row)
                                        : policy->Act(row, reference),
                   context);
    // The batched row consumed exactly the same stream draws.
    if (reference != nullptr) {
      EXPECT_EQ(streams[static_cast<size_t>(r)].state().words[0],
                reference->state().words[0])
          << context;
    }
  }

  Rng shared(77);
  Rng repeated(77);
  const std::vector<PolicyStep> one_stream =
      policy->ActBatch(observations, &shared);
  const std::vector<PolicyStep> repeated_rows = policy->ActBatch(
      observations, std::vector<Rng*>(static_cast<size_t>(rows), &repeated));
  const std::vector<PolicyStep> greedy = policy->ActBatch(observations, nullptr);
  ASSERT_EQ(one_stream.size(), static_cast<size_t>(rows)) << label;
  ASSERT_EQ(greedy.size(), static_cast<size_t>(rows)) << label;
  for (int r = 0; r < rows; ++r) {
    const std::string context = label + " shared row " + std::to_string(r);
    ExpectSameStep(one_stream[static_cast<size_t>(r)],
                   repeated_rows[static_cast<size_t>(r)], context);
    ExpectSameStep(greedy[static_cast<size_t>(r)],
                   policy->ActGreedy(row_vectors[static_cast<size_t>(r)]),
                   context + " greedy");
  }
  EXPECT_EQ(shared.NextDouble(), repeated.NextDouble()) << label;
}

// The serving primitive under the runtime: every row of the per-row-stream
// ActBatch is bit-identical to a per-sample Act on that row, and the other
// entry points are forwards to it — for both policies, frozen for serving,
// at batch sizes below the 4-row GEMM tile and above it.
TEST(ServeActBatchTest, RowsMatchPerSampleActBitExactly) {
  auto snapshot = SmallSnapshot();
  EdaEnvironment env(snapshot->dataset(), snapshot->options().env);
  FlatPolicy::Options flat_options;
  flat_options.hidden = {24, 24};
  FlatPolicy flat(env, flat_options);
  flat.PrepareForServing();

  const std::vector<double> obs = env.Reset();
  for (int rows : {1, 2, 3, 7}) {
    Matrix observations(rows, snapshot->observation_dim());
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < snapshot->observation_dim(); ++c) {
        observations(r, c) = obs[static_cast<size_t>(c)] + 0.01 * r;
      }
    }
    const std::string batch = " x" + std::to_string(rows);
    ExpectEntryPointsAgree(snapshot->policy(), observations,
                           "twofold" + batch);
    ExpectEntryPointsAgree(&flat, observations, "flat" + batch);
  }
}

TEST(ServeSnapshotTest, LoadRoundTripsBareParameterFile) {
  const std::string path = TempPath("serve_nn_roundtrip.bin");
  RemoveIfExists(path);
  auto source = SmallSnapshot();
  ASSERT_TRUE(
      SaveParameters(source->policy()->Parameters(), path).ok());

  SnapshotOptions options = SmallOptions();
  options.policy.seed = 999;  // Different init; the load must overwrite it.
  auto loaded =
      LoadPolicySnapshot(MakeDataset("cyber2").value(), options, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  SessionConfig config;
  config.seed = 31;
  config.max_steps = 8;
  SessionTrace from_source =
      ServeSingleSessionSerial(*source, config, nullptr);
  SessionTrace from_loaded =
      ServeSingleSessionSerial(*loaded.value(), config, nullptr);
  ExpectTracesEqual(from_loaded, from_source, *source->dataset().table,
                    "nn round trip");
  RemoveIfExists(path);
}

TEST(ServeSnapshotTest, LoadRoundTripsTrainingCheckpoint) {
  const std::string path = TempPath("serve_ckpt_roundtrip.bin");
  for (const char* suffix : {"", ".prev", ".new"}) {
    RemoveIfExists(path + suffix);
  }
  auto source = SmallSnapshot();
  TrainingCheckpoint ckpt;  // Weights travel separately; rest is default.
  ASSERT_TRUE(
      SaveTrainingCheckpoint(path, source->policy()->Parameters(), ckpt)
          .ok());

  auto loaded = LoadPolicySnapshot(MakeDataset("cyber2").value(),
                                   SmallOptions(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  SessionConfig config;
  config.seed = 32;
  config.max_steps = 8;
  ExpectTracesEqual(ServeSingleSessionSerial(*loaded.value(), config, nullptr),
                    ServeSingleSessionSerial(*source, config, nullptr),
                    *source->dataset().table, "ckpt round trip");
  for (const char* suffix : {"", ".prev", ".new"}) {
    RemoveIfExists(path + suffix);
  }
}

TEST(ServeSnapshotTest, LoadRejectsMismatchedArchitecture) {
  const std::string path = TempPath("serve_nn_mismatch.bin");
  RemoveIfExists(path);
  auto source = SmallSnapshot();  // hidden {24, 24}
  ASSERT_TRUE(
      SaveParameters(source->policy()->Parameters(), path).ok());

  SnapshotOptions narrow = SmallOptions();
  narrow.policy.hidden = {8};
  auto loaded =
      LoadPolicySnapshot(MakeDataset("cyber2").value(), narrow, path);
  ASSERT_FALSE(loaded.ok());
  // The error must describe the mismatch, not just fail.
  EXPECT_NE(loaded.status().message().find("mismatch"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("hidden sizes"), std::string::npos)
      << loaded.status().message();
  RemoveIfExists(path);
}

TEST(ServeSnapshotTest, LoadRejectsGarbageFile) {
  const std::string path = TempPath("serve_nn_garbage.bin");
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << "not a parameter container";
  auto loaded = LoadPolicySnapshot(MakeDataset("cyber2").value(),
                                   SmallOptions(), path);
  EXPECT_FALSE(loaded.ok());
  RemoveIfExists(path);
}

TEST(ServeSnapshotTest, LoadRejectsMissingFile) {
  auto loaded =
      LoadPolicySnapshot(MakeDataset("cyber2").value(), SmallOptions(),
                         TempPath("serve_nn_nonexistent.bin"));
  EXPECT_FALSE(loaded.ok());
}

// Operators reading a reload failure out of the health log need to know
// WHICH snapshot file to inspect: every loader error names the offending
// path, whatever layer it failed in.
TEST(ServeSnapshotTest, LoadErrorsNameThePath) {
  const std::string missing = TempPath("serve_no_such_snapshot.bin");
  auto not_found = LoadPolicySnapshot(MakeDataset("cyber2").value(),
                                      SmallOptions(), missing);
  ASSERT_FALSE(not_found.ok());
  EXPECT_NE(not_found.status().message().find(missing), std::string::npos)
      << not_found.status().message();

  const std::string garbage = TempPath("serve_garbage_snapshot.bin");
  std::ofstream(garbage, std::ios::binary | std::ios::trunc)
      << "definitely not a parameter container";
  auto corrupt = LoadPolicySnapshot(MakeDataset("cyber2").value(),
                                    SmallOptions(), garbage);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find(garbage), std::string::npos)
      << corrupt.status().message();
  RemoveIfExists(garbage);

  // Architecture mismatch too: the file parsed fine but cannot serve.
  const std::string mismatched = TempPath("serve_mismatch_snapshot.bin");
  RemoveIfExists(mismatched);
  auto source = SmallSnapshot();
  ASSERT_TRUE(SaveParameters(source->policy()->Parameters(), mismatched).ok());
  SnapshotOptions narrow = SmallOptions();
  narrow.policy.hidden = {8};
  auto wrong_arch = LoadPolicySnapshot(MakeDataset("cyber2").value(),
                                       narrow, mismatched);
  ASSERT_FALSE(wrong_arch.ok());
  EXPECT_NE(wrong_arch.status().message().find(mismatched), std::string::npos)
      << wrong_arch.status().message();
  RemoveIfExists(mismatched);
}

}  // namespace
}  // namespace atena
