// Training-guardrail tests (DESIGN.md §10): anomaly trigger detection, the
// rollback/retry/LR-backoff protocol, the JSONL health log, the
// retry-budget Status exit, and the determinism guarantees — guard-on with
// no anomaly is byte-identical to guard-off, and a rollback-recovered run
// resumes bit-identically across a crash mid-recovery at any thread count.
// Faults are injected through the PpoUpdater corruption hook: NaN into the
// loss, inf into a gradient slot, forced entropy collapse — each fired at
// every update index of a small run.

#include "rl/guardrails.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "core/twofold_policy.h"
#include "data/registry.h"
#include "rl/checkpoint.h"
#include "rl/parallel_trainer.h"
#include "rl/rollout.h"

namespace atena {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveIfExists(const std::string& path) {
  if (FileExists(path)) std::remove(path.c_str());
}

void RemoveCheckpointFamily(const std::string& path) {
  for (const char* suffix : {"", ".prev", ".new", ".tmp", ".new.tmp"}) {
    RemoveIfExists(path + suffix);
  }
}

std::string ReadWholeFile(const std::string& path) {
  std::string out;
  EXPECT_TRUE(ReadFileToString(path, &out).ok()) << path;
  return out;
}

/// Clears the PpoUpdater fault hook even when a test fails mid-way.
struct FaultHookGuard {
  ~FaultHookGuard() { SetPpoFaultInjectionHookForTesting({}); }
};

UpdateStats CleanStats(double grad_norm = 1.0, double entropy = 0.5) {
  UpdateStats stats;
  stats.policy_loss = 0.1;
  stats.value_loss = 0.2;
  stats.entropy = entropy;
  stats.grad_norm_max = grad_norm;
  stats.minibatches = 4;
  return stats;
}

GuardrailOptions SmallWindows() {
  GuardrailOptions options;
  options.enabled = true;
  options.grad_norm_window = 4;
  options.grad_norm_factor = 10.0;
  options.reward_window = 4;
  options.reward_patience = 2;
  options.reward_drop_abs = 1.0;
  options.reward_drop_frac = 0.0;
  return options;
}

// ---------------------------------------------------------------------------
// Trigger detection (unit level).

TEST(TrainingGuardTest, CleanUpdatesDoNotTrigger) {
  TrainingGuard guard(SmallWindows());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(guard.Check(i, CleanStats(), 5.0, true), GuardTrigger::kNone);
  }
  EXPECT_EQ(guard.summary().events, 0);
  EXPECT_EQ(guard.lr_scale(), 1.0);
}

TEST(TrainingGuardTest, NonFiniteLossTriggers) {
  TrainingGuard guard(SmallWindows());
  UpdateStats stats = CleanStats();
  stats.policy_loss = kNan;
  EXPECT_EQ(guard.Check(0, stats, 0.0, false),
            GuardTrigger::kNonFiniteLoss);
  stats = CleanStats();
  stats.value_loss = kInf;
  EXPECT_EQ(guard.Check(0, stats, 0.0, false),
            GuardTrigger::kNonFiniteLoss);
  stats = CleanStats();
  stats.entropy = kNan;
  EXPECT_EQ(guard.Check(0, stats, 0.0, false),
            GuardTrigger::kNonFiniteLoss);
}

TEST(TrainingGuardTest, NonFiniteGradientTriggers) {
  TrainingGuard guard(SmallWindows());
  UpdateStats stats = CleanStats();
  stats.grad_norm_max = kInf;
  EXPECT_EQ(guard.Check(0, stats, 0.0, false),
            GuardTrigger::kNonFiniteGradient);
  // A finite norm with zeroed-NaN gradient values still names the gradient:
  // the clip pass zeroed data the optimizer silently stepped over.
  stats = CleanStats();
  stats.nonfinite_grad_values = 3;
  EXPECT_EQ(guard.Check(0, stats, 0.0, false),
            GuardTrigger::kNonFiniteGradient);
}

TEST(TrainingGuardTest, ExplodingGradientUsesRollingMedian) {
  TrainingGuard guard(SmallWindows());
  // The detector is unarmed until the window fills: a large early norm is
  // start-of-training noise, not an anomaly.
  EXPECT_EQ(guard.Check(0, CleanStats(50.0), 0.0, false),
            GuardTrigger::kNone);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(guard.Check(i, CleanStats(1.0), 0.0, false),
              GuardTrigger::kNone);
  }
  // Median of the window is now 1.0: 5x passes, >10x trips.
  EXPECT_EQ(guard.Check(5, CleanStats(5.0), 0.0, false), GuardTrigger::kNone);
  EXPECT_EQ(guard.Check(6, CleanStats(20.0), 0.0, false),
            GuardTrigger::kExplodingGradient);
}

TEST(TrainingGuardTest, ExplodingGradientAbsoluteCeiling) {
  TrainingGuard guard(SmallWindows());
  // The absolute ceiling is armed from update 0, window or no window.
  EXPECT_EQ(guard.Check(0, CleanStats(2e9), 0.0, false),
            GuardTrigger::kExplodingGradient);
}

TEST(TrainingGuardTest, EntropyCollapseTriggers) {
  TrainingGuard guard(SmallWindows());
  EXPECT_EQ(guard.Check(0, CleanStats(1.0, 0.5), 0.0, false),
            GuardTrigger::kNone);
  EXPECT_EQ(guard.Check(1, CleanStats(1.0, 1e-4), 0.0, false),
            GuardTrigger::kEntropyCollapse);
}

TEST(TrainingGuardTest, RewardDivergenceNeedsSustainedDrop) {
  TrainingGuard guard(SmallWindows());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(guard.Check(i, CleanStats(), 10.0, true), GuardTrigger::kNone);
  }
  // One bad window mean is a strike, not a trigger (patience = 2)...
  EXPECT_EQ(guard.Check(4, CleanStats(), 2.0, true), GuardTrigger::kNone);
  // ...and recovering resets the strike counter.
  EXPECT_EQ(guard.Check(5, CleanStats(), 10.0, true), GuardTrigger::kNone);
  EXPECT_EQ(guard.Check(6, CleanStats(), 2.0, true), GuardTrigger::kNone);
  EXPECT_EQ(guard.Check(7, CleanStats(), 2.0, true),
            GuardTrigger::kRewardDivergence);
}

// ---------------------------------------------------------------------------
// Recovery policy: retry budget, LR backoff, health log.

TEST(TrainingGuardTest, RetryBudgetExhaustionReturnsStructuredStatus) {
  GuardrailOptions options = SmallWindows();
  options.max_retries = 2;
  options.lr_backoff = 0.5;
  TrainingGuard guard(options);
  UpdateStats bad = CleanStats();
  bad.policy_loss = kNan;

  EXPECT_TRUE(guard.OnAnomaly(GuardTrigger::kNonFiniteLoss, 3, bad, 0.0).ok());
  EXPECT_EQ(guard.lr_scale(), 0.5);
  EXPECT_TRUE(guard.OnAnomaly(GuardTrigger::kNonFiniteLoss, 3, bad, 0.0).ok());
  EXPECT_EQ(guard.lr_scale(), 0.25);

  Status exhausted = guard.OnAnomaly(GuardTrigger::kNonFiniteLoss, 3, bad, 0.0);
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(exhausted.message().find("non_finite_loss"), std::string::npos);
  // The failed attempt does not consume a retry or back the LR off further.
  EXPECT_EQ(guard.lr_scale(), 0.25);
  EXPECT_EQ(guard.summary().rollbacks, 2);
  EXPECT_EQ(guard.summary().events, 3);
}

TEST(TrainingGuardTest, HealthLogIsJsonlWithQuotedNonFinite) {
  const std::string log_path = TempPath("guard_unit_health.jsonl");
  RemoveIfExists(log_path);
  GuardrailOptions options = SmallWindows();
  options.health_log_path = log_path;
  TrainingGuard guard(options);
  guard.NoteGoodUpdate(4);

  UpdateStats bad = CleanStats();
  bad.policy_loss = kNan;
  bad.grad_norm_max = kInf;
  ASSERT_TRUE(guard.OnAnomaly(GuardTrigger::kNonFiniteLoss, 4, bad, 1.5).ok());

  const std::string log = ReadWholeFile(log_path);
  EXPECT_NE(log.find("\"update\":4"), std::string::npos) << log;
  EXPECT_NE(log.find("\"trigger\":\"non_finite_loss\""), std::string::npos);
  EXPECT_NE(log.find("\"action\":\"rollback\""), std::string::npos);
  EXPECT_NE(log.find("\"policy_loss\":\"nan\""), std::string::npos);
  EXPECT_NE(log.find("\"grad_norm_max\":\"inf\""), std::string::npos);
  EXPECT_NE(log.find("\"last_good_update\":4"), std::string::npos);
  EXPECT_NE(log.find("\"lr_scale\":0.5"), std::string::npos);
  // One event == one line of valid JSONL.
  EXPECT_EQ(log.back(), '\n');
  EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 1);
}

TEST(TrainingGuardTest, HealthLogStartsFreshOrContinuesAfterTornLine) {
  const std::string log_path = TempPath("guard_unit_resume_health.jsonl");
  RemoveIfExists(log_path);
  GuardrailOptions options = SmallWindows();
  options.health_log_path = log_path;
  UpdateStats bad = CleanStats();
  bad.policy_loss = kNan;

  // A fresh run replaces whatever log an earlier run left at the path.
  ASSERT_TRUE(AtomicWriteFile(log_path, "{\"stale\":1}\n").ok());
  TrainingGuard fresh(options);
  ASSERT_TRUE(fresh.OnAnomaly(GuardTrigger::kNonFiniteLoss, 2, bad, 1.0).ok());
  ASSERT_TRUE(fresh.OnAnomaly(GuardTrigger::kNonFiniteLoss, 3, bad, 1.0).ok());
  const std::string two_events = ReadWholeFile(log_path);
  EXPECT_EQ(two_events.find("stale"), std::string::npos) << two_events;
  EXPECT_EQ(std::count(two_events.begin(), two_events.end(), '\n'), 2);

  // A resumed run drops the torn final line a crash mid-append left and
  // appends after the last complete one.
  ASSERT_TRUE(
      AtomicWriteFile(log_path, two_events + "{\"event\":3,\"upd").ok());
  TrainingGuard resumed(options);
  resumed.RestoreCheckpointState(fresh.checkpoint_state(), 4);
  ASSERT_TRUE(
      resumed.OnAnomaly(GuardTrigger::kNonFiniteLoss, 5, bad, 1.0).ok());
  const std::string log = ReadWholeFile(log_path);
  ASSERT_EQ(log.substr(0, two_events.size()), two_events) << log;
  const std::string appended = log.substr(two_events.size());
  EXPECT_EQ(appended.rfind("{\"event\":3,\"type\":\"guard\",\"update\":5,", 0),
            0u)
      << log;
  EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 3);
  RemoveIfExists(log_path);
}

TEST(GuardCheckpointTest, GuardStateRoundTripsThroughPayload) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  EnvConfig config;
  config.num_term_bins = 4;
  EdaEnvironment env(dataset.value(), config);
  TwofoldPolicy::Options policy_options;
  policy_options.hidden = {8};
  TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                       policy_options);

  TrainingCheckpoint ckpt;
  ckpt.guard.retries_used = 2;
  ckpt.guard.lr_scale = 0.25;
  ckpt.guard.last_good_update = 5;
  ckpt.guard.events_logged = 7;
  const std::string payload =
      EncodeCheckpointPayload(policy.Parameters(), ckpt);
  TrainingCheckpoint decoded;
  ASSERT_TRUE(DecodeCheckpointPayload(payload, policy.Parameters(), "test",
                                      &decoded)
                  .ok());
  EXPECT_EQ(decoded.guard.retries_used, 2);
  EXPECT_EQ(decoded.guard.lr_scale, 0.25);
  EXPECT_EQ(decoded.guard.last_good_update, 5);
  EXPECT_EQ(decoded.guard.events_logged, 7);

  // Default guard state (no event ever) is not serialized at all, keeping
  // anomaly-free checkpoints byte-identical to guardrails-off ones.
  TrainingCheckpoint clean;
  const std::string clean_payload =
      EncodeCheckpointPayload(policy.Parameters(), clean);
  EXPECT_EQ(clean_payload.find("guard"), std::string::npos);
  TrainingCheckpoint clean_decoded;
  ASSERT_TRUE(DecodeCheckpointPayload(clean_payload, policy.Parameters(),
                                      "test", &clean_decoded)
                  .ok());
  EXPECT_TRUE(clean_decoded.guard.IsDefault());
}

// ---------------------------------------------------------------------------
// End-to-end trainer integration.

EnvConfig ConfigWithSeed(uint64_t seed) {
  EnvConfig config;
  config.episode_length = 7;
  config.num_term_bins = 4;
  config.history_displays = 2;
  config.seed = seed;
  return config;
}

struct TrainSetup {
  Dataset dataset;
  std::vector<std::unique_ptr<EdaEnvironment>> owned;
  std::vector<EdaEnvironment*> envs;
  std::unique_ptr<TwofoldPolicy> policy;
};

TrainSetup MakeSetup(int n_actors) {
  auto dataset = MakeDataset("cyber2");
  EXPECT_TRUE(dataset.ok());
  TrainSetup setup;
  setup.dataset = dataset.value();
  for (int e = 0; e < n_actors; ++e) {
    setup.owned.push_back(std::make_unique<EdaEnvironment>(
        setup.dataset, ConfigWithSeed(100 + static_cast<uint64_t>(e))));
    setup.envs.push_back(setup.owned.back().get());
  }
  TwofoldPolicy::Options policy_options;
  policy_options.hidden = {8};
  setup.policy = std::make_unique<TwofoldPolicy>(
      setup.envs[0]->observation_dim(), setup.envs[0]->action_space(),
      policy_options);
  return setup;
}

TrainerOptions BaseOptions() {
  TrainerOptions options;
  options.total_steps = 160;
  options.rollout_length = 40;
  options.minibatch_size = 32;
  options.final_eval_episodes = 2;
  options.seed = 17;
  return options;
}

GuardrailOptions EnabledGuardrails(const std::string& health_log_path) {
  GuardrailOptions guardrails;
  guardrails.enabled = true;
  guardrails.health_log_path = health_log_path;
  return guardrails;
}

void ExpectOpsEqual(const std::vector<EdaOperation>& a,
                    const std::vector<EdaOperation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << "op " << i;
    EXPECT_EQ(a[i].filter.column, b[i].filter.column) << "op " << i;
    EXPECT_EQ(a[i].filter.op, b[i].filter.op) << "op " << i;
    EXPECT_TRUE(a[i].filter.term == b[i].filter.term) << "op " << i;
    EXPECT_EQ(a[i].group.group_column, b[i].group.group_column) << "op " << i;
    EXPECT_EQ(a[i].group.agg, b[i].group.agg) << "op " << i;
    EXPECT_EQ(a[i].group.agg_column, b[i].group.agg_column) << "op " << i;
  }
}

void ExpectResultsIdentical(const TrainingResult& a, const TrainingResult& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].step, b.curve[i].step) << "curve point " << i;
    EXPECT_EQ(a.curve[i].mean_episode_reward, b.curve[i].mean_episode_reward)
        << "curve point " << i;
  }
  EXPECT_EQ(a.best_episode_reward, b.best_episode_reward);
  EXPECT_EQ(a.final_mean_reward, b.final_mean_reward);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.interrupted, b.interrupted);
  ExpectOpsEqual(a.best_episode_ops, b.best_episode_ops);
}

void ExpectWeightsBitIdentical(TwofoldPolicy& a, TwofoldPolicy& b) {
  auto params_a = a.Parameters();
  auto params_b = b.Parameters();
  ASSERT_EQ(params_a.size(), params_b.size());
  for (size_t k = 0; k < params_a.size(); ++k) {
    const auto& da = params_a[k]->value.data();
    const auto& db = params_b[k]->value.data();
    ASSERT_EQ(da.size(), db.size()) << "param " << k;
    for (size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i], db[i]) << "param " << k << " value " << i;
    }
  }
}

void ExpectAllWeightsFinite(TwofoldPolicy& policy) {
  for (const Parameter* p : policy.Parameters()) {
    for (double w : p->value.data()) {
      ASSERT_TRUE(std::isfinite(w)) << "non-finite weight survived recovery";
    }
  }
}

// With guardrails enabled and no anomaly fired, everything — the training
// result, the final weights, even the checkpoint file bytes — must be
// identical to a guardrails-off run. The guard only observes.
TEST(GuardrailTrainingTest, GuardOnWithNoAnomalyIsByteIdenticalToGuardOff) {
  const std::string path_off = TempPath("guard_off.ckpt");
  const std::string path_on = TempPath("guard_on.ckpt");
  const std::string health = TempPath("guard_noanomaly_health.jsonl");
  RemoveCheckpointFamily(path_off);
  RemoveCheckpointFamily(path_on);
  RemoveIfExists(health);

  TrainSetup off = MakeSetup(2);
  TrainerOptions options_off = BaseOptions();
  options_off.checkpoint_path = path_off;
  ParallelPpoTrainer trainer_off(off.envs, off.policy.get(), options_off);
  TrainingResult result_off = trainer_off.Train();

  TrainSetup on = MakeSetup(2);
  TrainerOptions options_on = BaseOptions();
  options_on.checkpoint_path = path_on;
  options_on.guardrails = EnabledGuardrails(health);
  ParallelPpoTrainer trainer_on(on.envs, on.policy.get(), options_on);
  TrainingResult result_on = trainer_on.Train();

  EXPECT_TRUE(result_on.guard_status.ok());
  EXPECT_EQ(result_on.guard.events, 0);
  EXPECT_EQ(result_on.guard.rollbacks, 0);
  EXPECT_EQ(result_on.guard.lr_scale, 1.0);
  ExpectResultsIdentical(result_off, result_on);
  ExpectWeightsBitIdentical(*off.policy, *on.policy);
  // Same checkpoint bytes: the guard section is omitted until an anomaly.
  EXPECT_EQ(ReadWholeFile(path_off), ReadWholeFile(path_on));
  // No anomaly, no health log.
  EXPECT_FALSE(FileExists(health));
}

const char* FaultTriggerName(GuardFault fault) {
  switch (fault) {
    case GuardFault::kNanLoss:
      return "non_finite_loss";
    case GuardFault::kInfGradient:
      return "non_finite_gradient";
    case GuardFault::kEntropyCollapse:
      return "entropy_collapse";
    case GuardFault::kNone:
      break;
  }
  return "none";
}

// The fault-injection matrix of the issue: each corruption kind fired at
// every update index of a small run. Every run must complete OK with
// all-finite weights and a health-log entry naming the trigger and the
// rollback recovery.
TEST(GuardrailTrainingTest, FaultInjectionMatrixRecoversAtEveryUpdateIndex) {
  FaultHookGuard hook_guard;
  const TrainerOptions base = BaseOptions();
  const int num_updates = base.total_steps / base.rollout_length;
  for (GuardFault fault : {GuardFault::kNanLoss, GuardFault::kInfGradient,
                           GuardFault::kEntropyCollapse}) {
    for (int inject_at = 0; inject_at < num_updates; ++inject_at) {
      SCOPED_TRACE(std::string(FaultTriggerName(fault)) + " at update " +
                   std::to_string(inject_at));
      const std::string health =
          TempPath("guard_matrix_" + std::string(FaultTriggerName(fault)) +
                   "_" + std::to_string(inject_at) + ".jsonl");
      RemoveIfExists(health);
      // A transient fault: corrupts exactly one raw update call, so the
      // retry of the same logical update (the next call) is clean.
      SetPpoFaultInjectionHookForTesting([fault, inject_at](int64_t call) {
        return call == inject_at ? fault : GuardFault::kNone;
      });

      TrainSetup setup = MakeSetup(1);
      TrainerOptions options = base;
      options.guardrails = EnabledGuardrails(health);
      ParallelPpoTrainer trainer(setup.envs, setup.policy.get(), options);
      TrainingResult result = trainer.Train();

      EXPECT_TRUE(result.guard_status.ok()) << result.guard_status;
      EXPECT_FALSE(result.interrupted);
      EXPECT_EQ(result.guard.events, 1);
      EXPECT_EQ(result.guard.rollbacks, 1);
      EXPECT_EQ(result.guard.lr_scale, 0.5);
      // The run trained to its full budget despite the corrupted update.
      EXPECT_EQ(result.curve.size(), static_cast<size_t>(num_updates));
      ExpectAllWeightsFinite(*setup.policy);

      const std::string log = ReadWholeFile(health);
      EXPECT_NE(log.find(std::string("\"trigger\":\"") +
                         FaultTriggerName(fault) + "\""),
                std::string::npos)
          << log;
      EXPECT_NE(log.find("\"action\":\"rollback\""), std::string::npos);
      EXPECT_NE(log.find("\"update\":" + std::to_string(inject_at)),
                std::string::npos);
    }
  }
}

// A persistent fault makes recovery impossible: every retry fails again, so
// after max_retries rollbacks the trainer must exit with a structured
// ResourceExhausted status (not crash, not spin) and all-finite weights.
TEST(GuardrailTrainingTest, PersistentFaultExhaustsRetryBudgetWithStatus) {
  FaultHookGuard hook_guard;
  const std::string health = TempPath("guard_persistent_health.jsonl");
  RemoveIfExists(health);
  SetPpoFaultInjectionHookForTesting(
      [](int64_t) { return GuardFault::kNanLoss; });

  TrainSetup setup = MakeSetup(1);
  TrainerOptions options = BaseOptions();
  options.guardrails = EnabledGuardrails(health);
  options.guardrails.max_retries = 3;
  ParallelPpoTrainer trainer(setup.envs, setup.policy.get(), options);
  TrainingResult result = trainer.Train();

  EXPECT_EQ(result.guard_status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.guard_status.message().find("non_finite_loss"),
            std::string::npos);
  EXPECT_EQ(result.guard.rollbacks, 3);
  EXPECT_EQ(result.guard.events, 4);  // 3 rollbacks + the aborting event
  EXPECT_EQ(result.guard.lr_scale, 0.125);
  // Never got past update 0, and the weights were rolled back to the
  // last-good (initial) snapshot — finite, usable, diagnosable.
  EXPECT_TRUE(result.curve.empty());
  ExpectAllWeightsFinite(*setup.policy);
  const std::string log = ReadWholeFile(health);
  EXPECT_NE(log.find("\"action\":\"abort\""), std::string::npos) << log;
}

// A recovered run is bit-identical at any stepping thread count: the guard
// runs serially after the update, so rollback points and retries land on
// the same update indices regardless of num_threads.
TEST(GuardrailTrainingTest, RecoveredRunIsBitIdenticalAcrossThreadCounts) {
  FaultHookGuard hook_guard;
  auto run = [&](int num_threads) {
    SetPpoFaultInjectionHookForTesting([](int64_t call) {
      return call == 1 ? GuardFault::kInfGradient : GuardFault::kNone;
    });
    TrainSetup setup = MakeSetup(4);
    TrainerOptions options = BaseOptions();
    options.num_threads = num_threads;
    options.guardrails = EnabledGuardrails("");
    ParallelPpoTrainer trainer(setup.envs, setup.policy.get(), options);
    TrainingResult result = trainer.Train();
    EXPECT_TRUE(result.guard_status.ok());
    EXPECT_EQ(result.guard.rollbacks, 1);
    return std::make_pair(std::move(setup), std::move(result));
  };

  auto [serial_setup, serial_result] = run(1);
  for (int num_threads : {2, 4}) {
    SCOPED_TRACE("num_threads = " + std::to_string(num_threads));
    auto [threaded_setup, threaded_result] = run(num_threads);
    ExpectResultsIdentical(serial_result, threaded_result);
    ExpectWeightsBitIdentical(*serial_setup.policy, *threaded_setup.policy);
  }
}

// Crash mid-recovery: the fault fires, the guard rolls back and persists
// its state in the checkpoint, and the process dies before the retry
// completes (emulated via RequestTrainingStop from the fault hook). A
// fresh trainer resuming from that checkpoint — at any thread count — must
// finish bit-identically to a run that recovered without crashing.
TEST(GuardrailTrainingTest, CrashMidRecoveryResumesBitIdentically) {
  FaultHookGuard hook_guard;
  const std::string health_ref = TempPath("guard_crash_ref_health.jsonl");

  // Reference: transient fault at update call 1, recovery runs through.
  SetPpoFaultInjectionHookForTesting([](int64_t call) {
    return call == 1 ? GuardFault::kNanLoss : GuardFault::kNone;
  });
  RemoveIfExists(health_ref);
  TrainSetup ref = MakeSetup(2);
  TrainerOptions ref_options = BaseOptions();
  ref_options.guardrails = EnabledGuardrails(health_ref);
  ParallelPpoTrainer ref_trainer(ref.envs, ref.policy.get(), ref_options);
  TrainingResult ref_result = ref_trainer.Train();
  ASSERT_TRUE(ref_result.guard_status.ok());
  ASSERT_EQ(ref_result.guard.rollbacks, 1);

  for (int resume_threads : {1, 2}) {
    SCOPED_TRACE("resume_threads = " + std::to_string(resume_threads));
    const std::string path =
        TempPath("guard_crash_" + std::to_string(resume_threads) + ".ckpt");
    const std::string health = TempPath(
        "guard_crash_" + std::to_string(resume_threads) + "_health.jsonl");
    RemoveCheckpointFamily(path);
    RemoveIfExists(health);

    // Crashed run: the same fault, plus a stop request raised while the
    // corrupted update runs — training dies on the first tick after the
    // rollback, exactly the window where only the persisted guard state
    // can keep the recovery deterministic.
    SetPpoFaultInjectionHookForTesting([](int64_t call) {
      if (call == 1) {
        RequestTrainingStop();
        return GuardFault::kNanLoss;
      }
      return GuardFault::kNone;
    });
    TrainSetup crashed = MakeSetup(2);
    TrainerOptions crash_options = BaseOptions();
    crash_options.checkpoint_path = path;
    crash_options.guardrails = EnabledGuardrails(health);
    ParallelPpoTrainer crash_trainer(crashed.envs, crashed.policy.get(),
                                     crash_options);
    TrainingResult crash_result = crash_trainer.Train();
    ASSERT_TRUE(crash_result.interrupted);
    ASSERT_TRUE(crash_result.guard_status.ok());

    // Resume with a fresh trainer and no fault; the checkpointed guard
    // state (spent retry, lr scale 0.5, last-good index) must carry the
    // recovery through to the reference result.
    SetPpoFaultInjectionHookForTesting({});
    TrainSetup resumed = MakeSetup(2);
    TrainerOptions resume_options = BaseOptions();
    resume_options.checkpoint_path = path;
    resume_options.resume = true;
    resume_options.num_threads = resume_threads;
    resume_options.guardrails = EnabledGuardrails(health);
    ParallelPpoTrainer resume_trainer(resumed.envs, resumed.policy.get(),
                                      resume_options);
    TrainingResult resumed_result = resume_trainer.Train();

    EXPECT_TRUE(resumed_result.guard_status.ok());
    EXPECT_EQ(resumed_result.guard.rollbacks, 1);
    EXPECT_EQ(resumed_result.guard.lr_scale, 0.5);
    ExpectResultsIdentical(ref_result, resumed_result);
    ExpectWeightsBitIdentical(*ref.policy, *resumed.policy);
    ExpectAllWeightsFinite(*resumed.policy);
    // The health log still names the original recovery after the resume.
    const std::string log = ReadWholeFile(health);
    EXPECT_NE(log.find("\"trigger\":\"non_finite_loss\""), std::string::npos);
    EXPECT_NE(log.find("\"action\":\"rollback\""), std::string::npos);
  }
}

}  // namespace
}  // namespace atena
