// Fault-domain tests for the serving runtime (DESIGN.md §13): session
// quarantine isolation, the deadline degradation ladder, admission control
// and load shedding, hot snapshot reload with last-good fallback, and the
// serving health log. The central contract: a fault retires exactly the
// session it belongs to, and the survivors' traces are bit-identical to a
// run where the failed session was never admitted — at any thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "core/twofold_policy.h"
#include "data/registry.h"
#include "nn/serialization.h"
#include "reward/compound.h"
#include "rl/checkpoint.h"
#include "rl/policy.h"
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

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

SnapshotOptions SmallOptions() {
  SnapshotOptions options;
  options.env.episode_length = 6;
  options.env.num_term_bins = 4;
  options.policy.hidden = {24, 24};
  return options;
}

/// The smallest policy this stack can serve — used by the corrupt-reload
/// matrix, which loads a container once per corrupted byte offset.
SnapshotOptions TinyOptions() {
  SnapshotOptions options;
  options.env.episode_length = 4;
  options.env.num_term_bins = 2;
  options.env.history_displays = 1;
  options.policy.hidden = {4};
  return options;
}

std::shared_ptr<PolicySnapshot> SmallSnapshot() {
  return std::make_shared<PolicySnapshot>(MakeDataset("cyber2").value(),
                                          SmallOptions());
}

std::vector<SessionConfig> FaultConfigs(int count) {
  std::vector<SessionConfig> configs;
  for (int i = 0; i < count; ++i) {
    SessionConfig config;
    config.seed = 700 + static_cast<uint64_t>(i);
    config.max_steps = 5 + (i % 2) * 3;  // 5 or 8 steps; episodes are 6.
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

uint64_t MustAdmit(SessionManager& manager, const SessionConfig& config) {
  Result<uint64_t> id = manager.Admit(config);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.ok() ? id.value() : 0;
}

std::map<uint64_t, SessionOutcome> OutcomesBySeed(
    std::vector<SessionOutcome> outcomes) {
  std::map<uint64_t, SessionOutcome> by_seed;
  for (auto& outcome : outcomes) {
    by_seed[outcome.trace.seed] = std::move(outcome);
  }
  return by_seed;
}

// ---------------------------------------------------------------------------
// Quarantine isolation

// The fault-injection matrix: an env-step failure at every (victim, step)
// position, at every thread count, quarantines exactly that session with
// its partial notebook — and every survivor's trace is bit-identical to a
// run where the victim was never admitted.
TEST(ServeQuarantineTest, EnvStepFaultIsolatesExactlyOneSession) {
  auto snapshot = SmallSnapshot();
  const auto configs = FaultConfigs(4);
  const Table& table = *snapshot->dataset().table;

  // Reference runs: the same workload with the victim never admitted.
  std::vector<std::map<uint64_t, SessionOutcome>> without_victim(
      configs.size());
  for (size_t victim = 0; victim < configs.size(); ++victim) {
    SessionManager manager(snapshot, ServeOptions{});
    for (size_t i = 0; i < configs.size(); ++i) {
      if (i != victim) MustAdmit(manager, configs[i]);
    }
    manager.Drain();
    without_victim[victim] = OutcomesBySeed(manager.TakeCompleted());
  }

  for (size_t victim = 0; victim < configs.size(); ++victim) {
    for (int fault_step : {0, 2, 4}) {
      for (int threads : {1, 2, 4}) {
        const std::string context =
            "victim " + std::to_string(victim) + " fault_step " +
            std::to_string(fault_step) + " threads " + std::to_string(threads);
        // The hook is keyed by the raw call's identity — (session id,
        // step index) — so the fault lands on the same logical step at
        // any thread count. The victim's id is known before serving
        // starts (ids are assigned in admission order).
        auto victim_id = std::make_shared<uint64_t>(0);
        ServeOptions options;
        options.num_threads = threads;
        options.fault_injection.env_step =
            [victim_id, fault_step](uint64_t session_id,
                                    int step_index) -> Status {
          if (session_id == *victim_id && step_index == fault_step) {
            return Status::Internal("injected env-step fault");
          }
          return Status::OK();
        };
        SessionManager manager(snapshot, options);
        for (size_t i = 0; i < configs.size(); ++i) {
          const uint64_t id = MustAdmit(manager, configs[i]);
          if (i == victim) *victim_id = id;
        }
        manager.Drain();
        auto by_seed = OutcomesBySeed(manager.TakeCompleted());
        ASSERT_EQ(by_seed.size(), configs.size()) << context;
        EXPECT_EQ(manager.stats().quarantined, 1) << context;

        const SessionOutcome& failed = by_seed.at(configs[victim].seed);
        EXPECT_EQ(failed.reason, RetireReason::kQuarantined) << context;
        EXPECT_EQ(failed.status.code(), StatusCode::kInternal) << context;
        EXPECT_NE(failed.status.message().find("injected"), std::string::npos)
            << context;
        // Partial notebook: exactly the steps before the fault.
        EXPECT_EQ(failed.trace.steps.size(), static_cast<size_t>(fault_step))
            << context;

        for (size_t i = 0; i < configs.size(); ++i) {
          if (i == victim) continue;
          const SessionOutcome& survivor = by_seed.at(configs[i].seed);
          EXPECT_EQ(survivor.reason, RetireReason::kCompleted) << context;
          ExpectTracesEqual(
              survivor.trace,
              without_victim[victim].at(configs[i].seed).trace, table,
              context + " survivor seed " + std::to_string(configs[i].seed));
        }
      }
    }
  }
}

/// A reward signal that emits NaN on its Nth Compute call (0 = never) —
/// the "poisoned reward" fault the quarantine screen must catch before it
/// reaches the shared batch.
class PoisonReward final : public RewardSignal {
 public:
  explicit PoisonReward(int poison_at_call) : poison_at_(poison_at_call) {}
  double Compute(const RewardContext&) override {
    ++calls_;
    if (poison_at_ > 0 && calls_ == poison_at_) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return 0.25;
  }

 private:
  int poison_at_;
  int calls_ = 0;
};

TEST(ServeQuarantineTest, NonFiniteRewardQuarantinesOnlyThatSession) {
  auto snapshot = SmallSnapshot();
  const auto configs = FaultConfigs(3);
  const size_t victim = 1;
  constexpr int kPoisonCall = 3;

  ServeOptions options;
  auto factory_calls = std::make_shared<int>(0);
  options.reward_factory = [factory_calls]() -> std::shared_ptr<RewardSignal> {
    // Sessions are admitted in config order; the victim's factory call is
    // the victim'th one.
    const int index = (*factory_calls)++;
    return std::make_shared<PoisonReward>(
        index == static_cast<int>(victim) ? kPoisonCall : 0);
  };
  SessionManager manager(snapshot, options);
  for (const auto& config : configs) MustAdmit(manager, config);
  manager.Drain();
  auto by_seed = OutcomesBySeed(manager.TakeCompleted());
  ASSERT_EQ(by_seed.size(), configs.size());
  EXPECT_EQ(manager.stats().quarantined, 1);

  const SessionOutcome& failed = by_seed.at(configs[victim].seed);
  EXPECT_EQ(failed.reason, RetireReason::kQuarantined);
  EXPECT_NE(failed.status.message().find("non-finite reward"),
            std::string::npos)
      << failed.status.message();
  // The poisoned step never entered the notebook.
  EXPECT_EQ(failed.trace.steps.size(), static_cast<size_t>(kPoisonCall - 1));
  for (size_t i = 0; i < configs.size(); ++i) {
    if (i == victim) continue;
    EXPECT_EQ(by_seed.at(configs[i].seed).reason, RetireReason::kCompleted);
    EXPECT_EQ(by_seed.at(configs[i].seed).trace.steps.size(),
              static_cast<size_t>(configs[i].max_steps));
  }
}

// ---------------------------------------------------------------------------
// Deadline degradation ladder

TEST(ServeDeadlineTest, OverrunWalksFullLadderThenRetires) {
  auto snapshot = SmallSnapshot();
  std::vector<SessionConfig> configs;
  for (uint64_t seed : {50, 51, 52}) {
    SessionConfig config;
    config.seed = seed;
    config.max_steps = 8;
    configs.push_back(config);
  }
  const size_t victim = 1;
  constexpr int64_t kDeadline = 1000;

  auto victim_id = std::make_shared<uint64_t>(0);
  ServeOptions options;
  options.step_deadline_nanos = kDeadline;
  options.fault_injection.step_duration_nanos =
      [victim_id](uint64_t session_id, int /*step_index*/) -> int64_t {
    return session_id == *victim_id ? 5 * kDeadline : kDeadline / 10;
  };
  SessionManager manager(snapshot, options);
  for (size_t i = 0; i < configs.size(); ++i) {
    const uint64_t id = MustAdmit(manager, configs[i]);
    if (i == victim) *victim_id = id;
  }
  manager.Drain();
  auto by_seed = OutcomesBySeed(manager.TakeCompleted());
  ASSERT_EQ(by_seed.size(), configs.size());

  // The victim overruns every step: step 0 at kNormal (escalate), step 1
  // at kNoDiversity (escalate), step 2 at kGreedy (retire). Each executed
  // step stays in the notebook.
  const SessionOutcome& degraded = by_seed.at(configs[victim].seed);
  EXPECT_EQ(degraded.reason, RetireReason::kDeadlineExceeded);
  EXPECT_EQ(degraded.final_stage, DegradeStage::kGreedy);
  EXPECT_EQ(degraded.trace.steps.size(), 3u);
  EXPECT_EQ(degraded.degraded_steps, 2);
  EXPECT_EQ(degraded.status.code(), StatusCode::kResourceExhausted);

  const ServeStats& stats = manager.stats();
  EXPECT_EQ(stats.deadline_retired, 1);
  EXPECT_EQ(stats.degrade_transitions, 3);
  EXPECT_EQ(stats.degraded_steps, 2);
  EXPECT_EQ(stats.degraded_greedy_steps, 1);

  // The other sessions never overran and are served to completion,
  // bit-identical to the serial reference — a neighbour's degradation is
  // invisible.
  const Table& table = *snapshot->dataset().table;
  for (size_t i = 0; i < configs.size(); ++i) {
    if (i == victim) continue;
    const SessionOutcome& outcome = by_seed.at(configs[i].seed);
    EXPECT_EQ(outcome.reason, RetireReason::kCompleted);
    ExpectTracesEqual(outcome.trace,
                      ServeSingleSessionSerial(*snapshot, configs[i], nullptr),
                      table, "seed " + std::to_string(configs[i].seed));
  }
  // Before any escalation the victim acts exactly like its reference.
  SessionTrace reference =
      ServeSingleSessionSerial(*snapshot, configs[victim], nullptr);
  ExpectTracesEqual(
      SessionTrace{0, configs[victim].seed,
                   {degraded.trace.steps[0]},
                   degraded.trace.steps[0].reward},
      SessionTrace{0, configs[victim].seed,
                   {reference.steps[0]},
                   reference.steps[0].reward},
      table, "victim step 0");
}

// Degraded mode on the compound reward skips exactly the diversity
// component — the O(session history) min-distance scan — and nothing else.
TEST(ServeDeadlineTest, DegradedRewardSkipsDiversityScan) {
  auto snapshot = SmallSnapshot();
  EnvConfig env_config = snapshot->options().env;
  env_config.seed = 17;

  CompoundReward::Options reward_options;
  reward_options.enable_coherency = false;  // No classifier needed.
  CompoundReward normal(nullptr, reward_options);
  CompoundReward degraded(nullptr, reward_options);
  degraded.SetDegradedMode(true);
  EXPECT_TRUE(degraded.degraded_mode());
  EXPECT_FALSE(normal.degraded_mode());

  // Two identical environments stepped through the same sampled action
  // sequence, one scored normally and one degraded.
  EdaEnvironment env_a(snapshot->dataset(), env_config);
  EdaEnvironment env_b(snapshot->dataset(), env_config);
  env_a.SetRewardSignal(&normal);
  env_b.SetRewardSignal(&degraded);
  std::vector<double> obs_a = env_a.Reset();
  std::vector<double> obs_b = env_b.Reset();
  Rng rng_a(4141), rng_b(4141);
  TwofoldPolicy* policy = snapshot->policy();

  bool saw_nonzero_diversity = false;
  for (int step = 0; step < 6; ++step) {
    const PolicyStep act_a = policy->Act(obs_a, &rng_a);
    const PolicyStep act_b = policy->Act(obs_b, &rng_b);
    StepOutcome out_a = ApplyAction(&env_a, act_a.action);
    StepOutcome out_b = ApplyAction(&env_b, act_b.action);
    // Identical environments and streams: same operation either way.
    ASSERT_EQ(out_a.op.Describe(*snapshot->dataset().table),
              out_b.op.Describe(*snapshot->dataset().table))
        << "step " << step;
    EXPECT_EQ(degraded.last_components().diversity, 0.0) << "step " << step;
    EXPECT_EQ(normal.last_components().interestingness,
              degraded.last_components().interestingness)
        << "step " << step;
    if (normal.last_components().diversity != 0.0) {
      saw_nonzero_diversity = true;
    }
    obs_a = std::move(out_a.observation);
    obs_b = std::move(out_b.observation);
  }
  // The normal-mode run must actually have scored diversity somewhere,
  // or this test proves nothing.
  EXPECT_TRUE(saw_nonzero_diversity);
}

// ---------------------------------------------------------------------------
// Admission control and load shedding

TEST(ServeAdmissionTest, OverAdmissionIsRefusedWithoutPerturbingSessions) {
  auto snapshot = SmallSnapshot();
  const auto configs = FaultConfigs(4);
  ServeOptions options;
  options.max_sessions = 3;
  SessionManager manager(snapshot, options);
  for (size_t i = 0; i < 3; ++i) MustAdmit(manager, configs[i]);

  // The 4th admission is a structured refusal naming the limit...
  Result<uint64_t> refused = manager.Admit(configs[3]);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("max_sessions"),
            std::string::npos)
      << refused.status().message();

  // ...also mid-serving...
  manager.Tick();
  manager.Tick();
  EXPECT_FALSE(manager.Admit(configs[3]).ok());
  EXPECT_EQ(manager.stats().shed, 2);

  // ...and the sessions it bounced off are served exactly as if nothing
  // had knocked.
  manager.Drain();
  auto by_seed = OutcomesBySeed(manager.TakeCompleted());
  ASSERT_EQ(by_seed.size(), 3u);
  const Table& table = *snapshot->dataset().table;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(by_seed.at(configs[i].seed).reason, RetireReason::kCompleted);
    ExpectTracesEqual(by_seed.at(configs[i].seed).trace,
                      ServeSingleSessionSerial(*snapshot, configs[i], nullptr),
                      table, "seed " + std::to_string(configs[i].seed));
  }
  // Capacity freed: the refused session is admissible now.
  MustAdmit(manager, configs[3]);
  manager.Drain();
  EXPECT_EQ(manager.stats().admitted, 4);
}

TEST(ServeAdmissionTest, WatermarkShedsOnlyWhileOverloaded) {
  auto snapshot = SmallSnapshot();
  ServeOptions options;
  options.max_sessions = 8;
  options.shed_watermark = 0.25;  // Watermark at 2 live sessions.
  options.step_deadline_nanos = 1000;
  // Every step overruns the deadline: after the first tick the runtime
  // reports itself overloaded.
  options.fault_injection.step_duration_nanos =
      [](uint64_t, int) -> int64_t { return 10 * 1000; };
  SessionManager manager(snapshot, options);

  SessionConfig config;
  config.max_steps = 8;
  config.seed = 60;
  MustAdmit(manager, config);
  config.seed = 61;
  // Not overloaded yet: the watermark alone does not shed.
  MustAdmit(manager, config);

  manager.Tick();
  config.seed = 62;
  Result<uint64_t> shed = manager.Admit(config);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("watermark"), std::string::npos)
      << shed.status().message();
  EXPECT_EQ(manager.stats().shed, 1);

  // Both sessions walk the ladder and retire; once the runtime is below
  // the watermark the same admission succeeds even though the last tick
  // was overloaded.
  manager.Drain();
  EXPECT_EQ(manager.stats().deadline_retired, 2);
  MustAdmit(manager, config);
}

// ---------------------------------------------------------------------------
// Hot snapshot reload

/// Serves one session on `manager` and returns its trace.
SessionTrace ServeOne(SessionManager& manager, uint64_t seed) {
  SessionConfig config;
  config.seed = seed;
  config.max_steps = 4;
  MustAdmit(manager, config);
  manager.Drain();
  auto outcomes = manager.TakeCompleted();
  EXPECT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].reason, RetireReason::kCompleted);
  return std::move(outcomes[0].trace);
}

TEST(ServeReloadTest, CorruptReloadAtEveryByteKeepsLastGood) {
  // Both containers the loader reads: a training checkpoint and a bare
  // weight file.
  const std::string ckpt_path = TempPath("serve_reload_good.bin");
  const std::string weights_path = TempPath("serve_reload_good.nn");
  const std::string corrupt_path = TempPath("serve_reload_corrupt.bin");
  for (const char* suffix : {"", ".prev", ".new"}) {
    RemoveIfExists(ckpt_path + suffix);
  }
  RemoveIfExists(weights_path);

  Dataset dataset = MakeDataset("cyber2").value();
  const SnapshotOptions options = TinyOptions();
  auto serving = std::make_shared<PolicySnapshot>(dataset, options);
  // The reload target: same architecture, different weights.
  SnapshotOptions retrained_options = options;
  retrained_options.policy.seed = 555;
  auto retrained =
      std::make_shared<PolicySnapshot>(dataset, retrained_options);
  ASSERT_TRUE(SaveTrainingCheckpoint(ckpt_path,
                                     retrained->policy()->Parameters(),
                                     TrainingCheckpoint{})
                  .ok());
  ASSERT_TRUE(
      SaveParameters(retrained->policy()->Parameters(), weights_path).ok());

  ServeOptions serve_options;
  serve_options.reload_retries = 0;  // The matrix needs no backoff.
  SessionManager manager(serving, serve_options);
  const SessionTrace before = ServeOne(manager, 300);
  const PolicySnapshot* last_good = manager.snapshot().get();

  auto scratch = std::make_shared<PolicySnapshot>(dataset, options);
  int failed_reloads = 0;
  for (const std::string& good_path : {ckpt_path, weights_path}) {
    SCOPED_TRACE(good_path);
    std::string good_bytes;
    ASSERT_TRUE(ReadFileToString(good_path, &good_bytes).ok());

    // Loader-level matrix: a single flipped byte at EVERY offset of the
    // CRC-framed container must be rejected (into scratch parameters, so
    // each probe costs a read + CRC, not a snapshot construction).
    for (size_t offset = 0; offset < good_bytes.size(); ++offset) {
      std::string corrupt = good_bytes;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0xFF);
      WriteBytes(corrupt_path, corrupt);
      Status loaded =
          LoadPolicyParameters(corrupt_path, scratch->policy()->Parameters());
      ASSERT_FALSE(loaded.ok()) << "flipped byte at offset " << offset
                                << " was accepted";
    }

    // Runtime-level matrix: ReloadSnapshot keeps the last-good snapshot on
    // corruption (sampled across the file) and on truncation.
    std::vector<size_t> probe_offsets = {0, 1, good_bytes.size() / 2,
                                         good_bytes.size() - 1};
    for (size_t offset = 7; offset < good_bytes.size();
         offset += good_bytes.size() / 16 + 1) {
      probe_offsets.push_back(offset);
    }
    for (size_t offset : probe_offsets) {
      std::string corrupt = good_bytes;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0xFF);
      WriteBytes(corrupt_path, corrupt);
      Status reloaded = manager.ReloadSnapshot(corrupt_path);
      EXPECT_FALSE(reloaded.ok()) << "offset " << offset;
      EXPECT_NE(reloaded.message().find(corrupt_path), std::string::npos)
          << reloaded.message();
      EXPECT_EQ(manager.snapshot().get(), last_good) << "offset " << offset;
      ++failed_reloads;
    }
    for (size_t length : {size_t{0}, size_t{1}, good_bytes.size() / 2,
                          good_bytes.size() - 1}) {
      WriteBytes(corrupt_path, good_bytes.substr(0, length));
      EXPECT_FALSE(manager.ReloadSnapshot(corrupt_path).ok())
          << "truncated to " << length;
      EXPECT_EQ(manager.snapshot().get(), last_good)
          << "truncated to " << length;
      ++failed_reloads;
    }
  }
  EXPECT_EQ(manager.stats().reload_failures, failed_reloads);

  // Still serving the last-good snapshot, bit for bit.
  ExpectTracesEqual(ServeOne(manager, 300), before,
                    *serving->dataset().table, "after corrupt reloads");

  // And an intact file of either kind swaps over: new sessions serve the
  // new weights.
  SessionConfig config;
  config.seed = 300;
  config.max_steps = 4;
  const SessionTrace want =
      ServeSingleSessionSerial(*retrained, config, nullptr);
  int successes = 0;
  for (const std::string& good_path : {ckpt_path, weights_path}) {
    ASSERT_TRUE(manager.ReloadSnapshot(good_path).ok()) << good_path;
    EXPECT_EQ(manager.stats().reload_successes, ++successes);
    ExpectTracesEqual(ServeOne(manager, 300), want, *serving->dataset().table,
                      "after good reload of " + good_path);
  }

  RemoveIfExists(corrupt_path);
  RemoveIfExists(weights_path);
  for (const char* suffix : {"", ".prev", ".new"}) {
    RemoveIfExists(ckpt_path + suffix);
  }
}

TEST(ServeReloadTest, TransientFailureRetriesWithBackoffThenSucceeds) {
  const std::string good_path = TempPath("serve_reload_retry_good.bin");
  const std::string flaky_path = TempPath("serve_reload_retry_flaky.bin");
  for (const char* suffix : {"", ".prev", ".new"}) {
    RemoveIfExists(good_path + suffix);
  }

  Dataset dataset = MakeDataset("cyber2").value();
  auto serving = std::make_shared<PolicySnapshot>(dataset, TinyOptions());
  ASSERT_TRUE(SaveTrainingCheckpoint(good_path,
                                     serving->policy()->Parameters(),
                                     TrainingCheckpoint{})
                  .ok());
  std::string good_bytes;
  ASSERT_TRUE(ReadFileToString(good_path, &good_bytes).ok());

  // A half-written file, as a concurrent trainer mid-save would leave it.
  WriteBytes(flaky_path, good_bytes.substr(0, good_bytes.size() / 2));

  auto sleeps = std::make_shared<std::vector<int64_t>>();
  ServeOptions options;
  options.reload_retries = 3;
  options.reload_backoff_nanos = 1000;
  options.reload_sleep = [sleeps, flaky_path, good_bytes](int64_t nanos) {
    sleeps->push_back(nanos);
    // The save completes while the reload is backing off.
    if (sleeps->size() == 2) WriteBytes(flaky_path, good_bytes);
  };
  SessionManager manager(serving, options);
  ASSERT_TRUE(manager.ReloadSnapshot(flaky_path).ok());
  // Attempt 0 and 1 failed; the backoff doubles between attempts.
  ASSERT_EQ(sleeps->size(), 2u);
  EXPECT_EQ((*sleeps)[0], 1000);
  EXPECT_EQ((*sleeps)[1], 2000);
  EXPECT_EQ(manager.stats().reload_successes, 1);
  EXPECT_EQ(manager.stats().reload_failures, 0);

  RemoveIfExists(flaky_path);
  for (const char* suffix : {"", ".prev", ".new"}) {
    RemoveIfExists(good_path + suffix);
  }
}

TEST(ServeReloadTest, GivesUpAfterRetryBudgetAndKeepsServing) {
  auto serving = std::make_shared<PolicySnapshot>(
      MakeDataset("cyber2").value(), TinyOptions());
  auto sleeps = std::make_shared<std::vector<int64_t>>();
  ServeOptions options;
  options.reload_retries = 2;
  options.reload_backoff_nanos = 500;
  options.reload_sleep = [sleeps](int64_t nanos) {
    sleeps->push_back(nanos);
  };
  SessionManager manager(serving, options);
  const PolicySnapshot* last_good = manager.snapshot().get();

  Status reloaded =
      manager.ReloadSnapshot(TempPath("serve_reload_never_exists.bin"));
  ASSERT_FALSE(reloaded.ok());
  ASSERT_EQ(sleeps->size(), 2u);
  EXPECT_EQ((*sleeps)[0], 500);
  EXPECT_EQ((*sleeps)[1], 1000);
  EXPECT_EQ(manager.stats().reload_failures, 1);
  EXPECT_EQ(manager.snapshot().get(), last_good);
  // Serving continues on the last-good snapshot.
  EXPECT_EQ(ServeOne(manager, 42).steps.size(), 4u);
}

// ---------------------------------------------------------------------------
// Health log

TEST(ServeHealthLogTest, FaultDomainEventsAreLogged) {
  const std::string log_path = TempPath("serve_health_log.jsonl");
  RemoveIfExists(log_path);
  auto snapshot = SmallSnapshot();

  auto victim_id = std::make_shared<uint64_t>(0);
  ServeOptions options;
  options.max_sessions = 1;
  options.health_log_path = log_path;
  options.reload_retries = 0;
  options.fault_injection.env_step = [victim_id](uint64_t session_id,
                                                 int step_index) -> Status {
    if (session_id == *victim_id && step_index == 2) {
      return Status::IOError("disk gremlin");
    }
    return Status::OK();
  };
  SessionManager manager(snapshot, options);

  SessionConfig config;
  config.seed = 80;
  config.max_steps = 6;
  *victim_id = MustAdmit(manager, config);
  config.seed = 81;
  EXPECT_FALSE(manager.Admit(config).ok());  // Shed at max_sessions.
  EXPECT_FALSE(
      manager.ReloadSnapshot(TempPath("serve_health_missing.bin")).ok());
  manager.Drain();

  std::string log;
  ASSERT_TRUE(ReadFileToString(log_path, &log).ok());
  for (const char* needle :
       {"\"type\":\"shed\"", "\"type\":\"quarantine\"",
        "\"type\":\"reload_fail\"", "\"type\":\"reload_giveup\"",
        "disk gremlin", "\"session\":"}) {
    EXPECT_NE(log.find(needle), std::string::npos)
        << "missing " << needle << " in:\n" << log;
  }
  // Every line is one {...} object with a monotonically increasing id.
  std::istringstream lines(log);
  std::string line;
  int expected_event = 1;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_EQ(line.find("{\"event\":" + std::to_string(expected_event)), 0u)
        << line;
    ++expected_event;
  }
  EXPECT_GE(expected_event - 1, 4);
  RemoveIfExists(log_path);
}

}  // namespace
}  // namespace atena
