// Crash-safety tests for the ATENA-CKPT v3 training checkpoint subsystem:
// resume bit-identity (an interrupted-and-resumed run must be
// indistinguishable from an uninterrupted one), rotation, fault injection
// on the save path, and truncation recovery on the load path.

#include "rl/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "core/twofold_policy.h"
#include "data/registry.h"
#include "nn/serialization.h"
#include "rl/parallel_trainer.h"

namespace atena {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveIfExists(const std::string& path) {
  if (FileExists(path)) std::remove(path.c_str());
}

// Plain (non-durable) overwrite for planting corrupted test inputs; the
// fsyncs of AtomicWriteFile would dominate the every-offset loops.
void WriteRaw(const std::string& path, const std::string& contents) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << contents;
}

void RemoveCheckpointFamily(const std::string& path) {
  for (const char* suffix : {"", ".prev", ".new", ".tmp", ".new.tmp"}) {
    RemoveIfExists(path + suffix);
  }
}

// Episode length 7 with rollout 40 puts every actor mid-episode at most
// update boundaries, so resume exercises the episode-replay path, not just
// the aligned case.
EnvConfig ConfigWithSeed(uint64_t seed, int episode_length = 7,
                         int history_displays = 2) {
  EnvConfig config;
  config.episode_length = episode_length;
  config.num_term_bins = 4;
  config.history_displays = history_displays;
  config.seed = seed;
  return config;
}

struct TrainSetup {
  Dataset dataset;
  std::vector<std::unique_ptr<EdaEnvironment>> owned;
  std::vector<EdaEnvironment*> envs;
  std::unique_ptr<TwofoldPolicy> policy;
};

TrainSetup MakeSetup(int n_actors, int episode_length = 7, int hidden = 8,
                     int history_displays = 2) {
  auto dataset = MakeDataset("cyber2");
  EXPECT_TRUE(dataset.ok());
  TrainSetup setup;
  setup.dataset = dataset.value();
  for (int e = 0; e < n_actors; ++e) {
    setup.owned.push_back(std::make_unique<EdaEnvironment>(
        setup.dataset,
        ConfigWithSeed(100 + static_cast<uint64_t>(e), episode_length,
                       history_displays)));
    setup.envs.push_back(setup.owned.back().get());
  }
  TwofoldPolicy::Options policy_options;
  policy_options.hidden = {hidden};
  setup.policy = std::make_unique<TwofoldPolicy>(
      setup.envs[0]->observation_dim(), setup.envs[0]->action_space(),
      policy_options);
  return setup;
}

TrainerOptions BaseOptions() {
  TrainerOptions options;
  options.total_steps = 240;
  options.rollout_length = 40;
  options.minibatch_size = 32;
  options.final_eval_episodes = 2;
  options.seed = 17;
  return options;
}

void ExpectOpsEqual(const std::vector<EdaOperation>& a,
                    const std::vector<EdaOperation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << "op " << i;
    EXPECT_EQ(a[i].filter.column, b[i].filter.column) << "op " << i;
    EXPECT_EQ(a[i].filter.op, b[i].filter.op) << "op " << i;
    EXPECT_EQ(a[i].filter.term_bin, b[i].filter.term_bin) << "op " << i;
    EXPECT_TRUE(a[i].filter.term == b[i].filter.term) << "op " << i;
    EXPECT_EQ(a[i].group.group_column, b[i].group.group_column) << "op " << i;
    EXPECT_EQ(a[i].group.agg, b[i].group.agg) << "op " << i;
    EXPECT_EQ(a[i].group.agg_column, b[i].group.agg_column) << "op " << i;
  }
}

/// Byte-level equality of two training results: every curve point, the
/// best-episode record, and the aggregates must match exactly.
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

/// Interrupts training after `stop_after_updates` updates (checkpoint
/// flushed), then resumes with a fresh trainer/policy/envs and runs to
/// completion. The combined run must be bit-identical to `baseline`.
/// `first_threads`/`second_threads` set the env-stepping concurrency of the
/// interrupted and the resumed run — snapshots are thread-count agnostic,
/// so any combination must reproduce the serial baseline.
void CheckResumeBitIdentity(int n_actors, int stop_after_updates,
                            int first_threads = 1, int second_threads = 1) {
  const std::string path =
      TempPath("resume_" + std::to_string(n_actors) + "_" +
               std::to_string(stop_after_updates) + "_" +
               std::to_string(first_threads) + "_" +
               std::to_string(second_threads) + ".ckpt");
  RemoveCheckpointFamily(path);

  // Uninterrupted reference run (no checkpointing, serial stepping).
  TrainSetup ref = MakeSetup(n_actors);
  ParallelPpoTrainer ref_trainer(ref.envs, ref.policy.get(), BaseOptions());
  TrainingResult baseline = ref_trainer.Train();

  // Interrupted run: stop via the cooperative flag after k updates.
  TrainSetup first = MakeSetup(n_actors);
  TrainerOptions options = BaseOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_updates = 1;
  options.num_threads = first_threads;
  ParallelPpoTrainer first_trainer(first.envs, first.policy.get(), options);
  int updates_seen = 0;
  first_trainer.SetProgressCallback(
      [&updates_seen, stop_after_updates](const CurvePoint&) {
        if (++updates_seen == stop_after_updates) RequestTrainingStop();
      });
  TrainingResult partial = first_trainer.Train();
  ASSERT_TRUE(partial.interrupted);
  ASSERT_EQ(partial.curve.size(), static_cast<size_t>(stop_after_updates));
  ASSERT_TRUE(FileExists(path));
  // The partial curve must already be a prefix of the uninterrupted run's.
  for (int i = 0; i < stop_after_updates; ++i) {
    EXPECT_EQ(partial.curve[i].step, baseline.curve[i].step);
    EXPECT_EQ(partial.curve[i].mean_episode_reward,
              baseline.curve[i].mean_episode_reward);
  }

  // Resumed run: fresh everything, state restored from the checkpoint.
  TrainSetup second = MakeSetup(n_actors);
  options.resume = true;
  options.num_threads = second_threads;
  ParallelPpoTrainer second_trainer(second.envs, second.policy.get(),
                                    options);
  TrainingResult resumed = second_trainer.Train();
  EXPECT_FALSE(resumed.interrupted);
  ExpectResultsIdentical(baseline, resumed);
  RemoveCheckpointFamily(path);
}

TEST(CheckpointResumeTest, BitIdenticalSingleActor) {
  CheckResumeBitIdentity(/*n_actors=*/1, /*stop_after_updates=*/3);
}

TEST(CheckpointResumeTest, BitIdenticalFourActors) {
  CheckResumeBitIdentity(/*n_actors=*/4, /*stop_after_updates=*/2);
}

// The stepping thread count is a pure wall-clock knob (DESIGN.md §9) and
// deliberately not part of the snapshot: a checkpoint written by a serial
// run resumes bit-identically on 4 threads, and vice versa.
TEST(CheckpointResumeTest, ThreadCountMayChangeAcrossResume) {
  CheckResumeBitIdentity(/*n_actors=*/4, /*stop_after_updates=*/2,
                         /*first_threads=*/1, /*second_threads=*/4);
  CheckResumeBitIdentity(/*n_actors=*/4, /*stop_after_updates=*/2,
                         /*first_threads=*/4, /*second_threads=*/1);
}

/// Counts Compute calls and raises the cooperative stop flag at the Nth —
/// placing the stop request in the middle of a rollout, where only the
/// between-tick poll can see it. `n <= 0` never fires (same reward values,
/// used for the baseline and resumed runs).
class StopAtNthRewardSignal final : public RewardSignal {
 public:
  explicit StopAtNthRewardSignal(int n) : remaining_(n) {}
  double Compute(const RewardContext&) override {
    if (remaining_ > 0 && --remaining_ == 0) RequestTrainingStop();
    return 0.25;  // a constant so every run in the family sees equal rewards
  }

 private:
  int remaining_;
};

// Between-tick stop polling: a stop raised mid-rollout must take effect at
// the next lockstep tick — abandoning the partial rollout, flushing the
// last update-boundary snapshot — and resuming must still complete
// bit-identically. (Boundary-only polling would have run the rollout to
// its end and published one more curve point first.)
TEST(CheckpointResumeTest, MidRolloutStopFlushesLastBoundaryAndResumes) {
  const std::string path = TempPath("mid_rollout_stop.ckpt");
  RemoveCheckpointFamily(path);
  constexpr int kActors = 2;

  auto attach = [](TrainSetup* setup, int stop_at) {
    // Signal on actor 0 only; the other actor gets a never-firing clone so
    // all actors' reward streams are identical across the run family.
    auto signals =
        std::make_shared<std::vector<std::unique_ptr<StopAtNthRewardSignal>>>();
    signals->push_back(std::make_unique<StopAtNthRewardSignal>(stop_at));
    signals->push_back(std::make_unique<StopAtNthRewardSignal>(0));
    for (int e = 0; e < kActors; ++e) {
      setup->envs[static_cast<size_t>(e)]->SetRewardSignal(
          (*signals)[static_cast<size_t>(e)].get());
    }
    return signals;
  };

  // Uninterrupted baseline (stop never fires).
  TrainSetup ref = MakeSetup(kActors);
  auto ref_signals = attach(&ref, 0);
  ParallelPpoTrainer ref_trainer(ref.envs, ref.policy.get(), BaseOptions());
  TrainingResult baseline = ref_trainer.Train();

  // Interrupted run: actor 0 computes one reward per tick, so firing at
  // its 45th Compute raises the flag at global step 90 — strictly inside
  // the third rollout (boundaries at 80 and 120 with rollout_length 40).
  TrainSetup first = MakeSetup(kActors);
  auto first_signals = attach(&first, 45);
  TrainerOptions options = BaseOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_updates = 1;
  ParallelPpoTrainer first_trainer(first.envs, first.policy.get(), options);
  TrainingResult partial = first_trainer.Train();

  ASSERT_TRUE(partial.interrupted);
  // Stopped at the tick after step 90, NOT at the next update boundary:
  // only the two completed updates are published.
  ASSERT_EQ(partial.curve.size(), 2u);
  EXPECT_EQ(partial.curve.back().step, 80);
  ASSERT_TRUE(FileExists(path));

  // Resume (never-firing signals) must finish the run bit-identically —
  // including re-collecting the abandoned partial rollout.
  TrainSetup second = MakeSetup(kActors);
  auto second_signals = attach(&second, 0);
  options.resume = true;
  ParallelPpoTrainer second_trainer(second.envs, second.policy.get(),
                                    options);
  TrainingResult resumed = second_trainer.Train();
  EXPECT_FALSE(resumed.interrupted);
  ExpectResultsIdentical(baseline, resumed);
  RemoveCheckpointFamily(path);
}

TEST(CheckpointResumeTest, ResumeAfterEveryUpdateBoundary) {
  // Interrupt at every possible update boundary of a short 1-actor run;
  // each resume must reproduce the same final result.
  const int total_updates = 240 / 40;
  for (int k = 1; k < total_updates; ++k) {
    CheckResumeBitIdentity(/*n_actors=*/1, /*stop_after_updates=*/k);
  }
}

TEST(CheckpointResumeTest, CheckpointingItselfDoesNotPerturbTraining) {
  TrainSetup plain = MakeSetup(2);
  ParallelPpoTrainer plain_trainer(plain.envs, plain.policy.get(),
                                   BaseOptions());
  TrainingResult without = plain_trainer.Train();

  const std::string path = TempPath("perturb.ckpt");
  RemoveCheckpointFamily(path);
  TrainSetup ckpt = MakeSetup(2);
  TrainerOptions options = BaseOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_updates = 1;
  ParallelPpoTrainer ckpt_trainer(ckpt.envs, ckpt.policy.get(), options);
  TrainingResult with = ckpt_trainer.Train();

  ExpectResultsIdentical(without, with);
  RemoveCheckpointFamily(path);
}

TEST(CheckpointResumeTest, SaveFailuresDoNotAbortTraining) {
  // Every write attempt fails — training must still run to completion and
  // produce the exact no-checkpoint result.
  TrainSetup plain = MakeSetup(1);
  ParallelPpoTrainer plain_trainer(plain.envs, plain.policy.get(),
                                   BaseOptions());
  TrainingResult without = plain_trainer.Train();

  const std::string path = TempPath("disk_on_fire.ckpt");
  RemoveCheckpointFamily(path);
  SetFileIoFailureHookForTesting(
      [](const char* op, const std::string&) {
        return std::string(op) == "write";
      });
  TrainSetup hooked = MakeSetup(1);
  TrainerOptions options = BaseOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_updates = 1;
  ParallelPpoTrainer hooked_trainer(hooked.envs, hooked.policy.get(),
                                    options);
  TrainingResult with = hooked_trainer.Train();
  SetFileIoFailureHookForTesting({});

  EXPECT_FALSE(FileExists(path));
  ExpectResultsIdentical(without, with);
  RemoveCheckpointFamily(path);
}

TEST(CheckpointResumeTest, MismatchedEnvSeedsStartFresh) {
  const std::string path = TempPath("seed_mismatch.ckpt");
  RemoveCheckpointFamily(path);

  TrainSetup first = MakeSetup(1);
  TrainerOptions options = BaseOptions();
  options.total_steps = 80;
  options.checkpoint_path = path;
  options.checkpoint_every_updates = 1;
  ParallelPpoTrainer trainer(first.envs, first.policy.get(), options);
  trainer.Train();
  ASSERT_TRUE(FileExists(path));

  // A trainer over a differently-seeded environment must refuse the
  // snapshot and still complete a full fresh run.
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  EdaEnvironment other_env(dataset.value(), ConfigWithSeed(999));
  TwofoldPolicy::Options policy_options;
  policy_options.hidden = {8};
  TwofoldPolicy policy(other_env.observation_dim(), other_env.action_space(),
                       policy_options);
  options.resume = true;
  ParallelPpoTrainer other({&other_env}, &policy, options);
  TrainingResult result = other.Train();
  EXPECT_EQ(result.curve.back().step, options.total_steps);
  RemoveCheckpointFamily(path);
}

// ---------------------------------------------------------------------------
// Container-level tests.

class CheckpointContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A real (tiny) training run gives the checkpoint authentic content:
    // curve, best episode, Adam moments, mid-episode actor state. The
    // smallest viable network keeps the every-byte-offset truncation sweep
    // fast — the sweep is quadratic in the file size.
    path_ = TempPath("container.ckpt");
    RemoveCheckpointFamily(path_);
    setup_ = MakeSetup(1, /*episode_length=*/5, /*hidden=*/2,
                       /*history_displays=*/1);
    TrainerOptions options = BaseOptions();
    options.total_steps = 80;
    options.rollout_length = 20;
    options.checkpoint_path = path_;
    options.checkpoint_every_updates = 1;
    ParallelPpoTrainer trainer(setup_.envs, setup_.policy.get(), options);
    trainer.Train();
    ASSERT_TRUE(FileExists(path_));
    ASSERT_TRUE(FileExists(path_ + ".prev"));
  }

  void TearDown() override {
    SetFileIoFailureHookForTesting({});
    RemoveCheckpointFamily(path_);
  }

  std::vector<Parameter*> Params() { return setup_.policy->Parameters(); }

  std::string path_;
  TrainSetup setup_;
};

TEST_F(CheckpointContainerTest, RotationKeepsPreviousSnapshot) {
  TrainingCheckpoint head, prev;
  ASSERT_TRUE(LoadTrainingCheckpoint(path_, Params(), &head).ok());
  // Loading the .prev file directly (as the fallback would).
  std::string prev_payload;
  ASSERT_TRUE(ReadChecksummedFile(path_ + ".prev", "ATENA-CKPT v3",
                                  &prev_payload)
                  .ok());
  ASSERT_TRUE(DecodeCheckpointPayload(prev_payload, Params(),
                                      path_ + ".prev", &prev)
                  .ok());
  EXPECT_GT(head.steps_done, prev.steps_done);
  EXPECT_EQ(head.updates_done, prev.updates_done + 1);
}

TEST_F(CheckpointContainerTest, RoundTripPreservesEverything) {
  TrainingCheckpoint loaded;
  ASSERT_TRUE(LoadTrainingCheckpoint(path_, Params(), &loaded).ok());
  // Re-encode from the loaded image and decode again; the two images must
  // agree field for field (weights included).
  // Param values: stage the loaded weights into scratch parameters so the
  // re-encoded block matches.
  std::vector<Parameter*> params = Params();
  for (size_t k = 0; k < params.size(); ++k) {
    params[k]->value = loaded.param_values[k];
  }
  std::string payload = EncodeCheckpointPayload(params, loaded);
  TrainingCheckpoint again;
  ASSERT_TRUE(
      DecodeCheckpointPayload(payload, params, "round-trip", &again).ok());
  EXPECT_EQ(loaded.steps_done, again.steps_done);
  EXPECT_EQ(loaded.updates_done, again.updates_done);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded.trainer_rng.words[i], again.trainer_rng.words[i]);
  }
  EXPECT_EQ(loaded.trainer_rng.has_spare_gaussian,
            again.trainer_rng.has_spare_gaussian);
  EXPECT_EQ(loaded.trainer_rng.spare_gaussian,
            again.trainer_rng.spare_gaussian);
  EXPECT_EQ(loaded.adam_step, again.adam_step);
  ASSERT_EQ(loaded.adam_m.size(), again.adam_m.size());
  for (size_t k = 0; k < loaded.adam_m.size(); ++k) {
    EXPECT_EQ(loaded.adam_m[k].data(), again.adam_m[k].data());
    EXPECT_EQ(loaded.adam_v[k].data(), again.adam_v[k].data());
  }
  ASSERT_EQ(loaded.param_values.size(), again.param_values.size());
  for (size_t k = 0; k < loaded.param_values.size(); ++k) {
    EXPECT_EQ(loaded.param_values[k].data(), again.param_values[k].data());
  }
  ASSERT_EQ(loaded.curve.size(), again.curve.size());
  for (size_t i = 0; i < loaded.curve.size(); ++i) {
    EXPECT_EQ(loaded.curve[i].step, again.curve[i].step);
    EXPECT_EQ(loaded.curve[i].mean_episode_reward,
              again.curve[i].mean_episode_reward);
  }
  EXPECT_EQ(loaded.recent_episode_rewards, again.recent_episode_rewards);
  ExpectOpsEqual(loaded.best_episode_ops, again.best_episode_ops);
  ASSERT_EQ(loaded.actors.size(), again.actors.size());
  for (size_t e = 0; e < loaded.actors.size(); ++e) {
    EXPECT_EQ(loaded.actors[e].env_seed, again.actors[e].env_seed);
    EXPECT_EQ(loaded.actors[e].episode_reward,
              again.actors[e].episode_reward);
    ExpectOpsEqual(loaded.actors[e].episode_ops, again.actors[e].episode_ops);
  }
}

TEST_F(CheckpointContainerTest, TruncationAtEveryOffsetRecoversOrFailsClean) {
  std::string full;
  ASSERT_TRUE(ReadFileToString(path_, &full).ok());
  // Reference image of .prev, which every recovery must reproduce.
  TrainingCheckpoint prev_image;
  {
    std::string prev_payload;
    ASSERT_TRUE(ReadChecksummedFile(path_ + ".prev", "ATENA-CKPT v3",
                                    &prev_payload)
                    .ok());
    ASSERT_TRUE(DecodeCheckpointPayload(prev_payload, Params(),
                                        path_ + ".prev", &prev_image)
                    .ok());
  }
  // Network weights must never be touched by any load.
  std::vector<std::vector<double>> weights_before;
  for (Parameter* p : Params()) weights_before.push_back(p->value.data());

  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteRaw(path_, full.substr(0, cut));
    TrainingCheckpoint loaded;
    CheckpointLoadInfo info;
    Status status = LoadTrainingCheckpoint(path_, Params(), &loaded, &info);
    // Every truncation must be detected and recovered from .prev — never a
    // crash, never a half-loaded snapshot.
    ASSERT_TRUE(status.ok()) << "cut " << cut << ": " << status;
    EXPECT_TRUE(info.recovered_from_prev) << "cut " << cut;
    EXPECT_EQ(loaded.steps_done, prev_image.steps_done) << "cut " << cut;
    EXPECT_EQ(loaded.updates_done, prev_image.updates_done) << "cut " << cut;
  }

  // Without the .prev fallback every truncation must fail with a clean
  // Status and leave the network untouched.
  std::string prev_file;
  ASSERT_TRUE(ReadFileToString(path_ + ".prev", &prev_file).ok());
  RemoveIfExists(path_ + ".prev");
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteRaw(path_, full.substr(0, cut));
    TrainingCheckpoint loaded;
    Status status = LoadTrainingCheckpoint(path_, Params(), &loaded);
    EXPECT_FALSE(status.ok()) << "cut " << cut << " accepted";
  }
  std::vector<Parameter*> params = Params();
  for (size_t k = 0; k < params.size(); ++k) {
    EXPECT_EQ(params[k]->value.data(), weights_before[k])
        << "load modified parameter " << k;
  }
  // Restore the family for TearDown symmetry.
  ASSERT_TRUE(AtomicWriteFile(path_, full).ok());
  ASSERT_TRUE(AtomicWriteFile(path_ + ".prev", prev_file).ok());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Expects every double field the payload carries to hold `value`'s exact
/// bit pattern (see ExactDoubleCheckpoint).
void ExpectExactDoubles(const TrainingCheckpoint& ckpt, double value,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_TRUE(SameBits(ckpt.best_episode_reward, value));
  ASSERT_EQ(ckpt.curve.size(), 1u);
  EXPECT_TRUE(SameBits(ckpt.curve[0].mean_episode_reward, value));
  ASSERT_EQ(ckpt.recent_episode_rewards.size(), 2u);
  EXPECT_TRUE(SameBits(ckpt.recent_episode_rewards[1], value));
  ASSERT_EQ(ckpt.actors.size(), 1u);
  EXPECT_TRUE(SameBits(ckpt.actors[0].episode_reward, value));
  ASSERT_EQ(ckpt.actors[0].episode_ops.size(), 1u);
  EXPECT_TRUE(
      SameBits(ckpt.actors[0].episode_ops[0].filter.term.as_double(), value));
  ASSERT_EQ(ckpt.adam_m.size(), 1u);
  EXPECT_TRUE(SameBits(ckpt.adam_m[0].data()[4], value));
  EXPECT_TRUE(SameBits(ckpt.adam_v[0].data()[0], 0.5));
  EXPECT_TRUE(ckpt.trainer_rng.has_spare_gaussian);
  EXPECT_TRUE(SameBits(ckpt.trainer_rng.spare_gaussian, value));
}

/// A checkpoint holding `value` in each reward field, a filter term, an
/// Adam moment entry and the trainer Rng's spare (the guard's lr_scale is
/// excluded: the decoder requires it finite and positive).
TrainingCheckpoint ExactDoubleCheckpoint(double value) {
  TrainingCheckpoint ckpt;
  ckpt.steps_done = 40;
  ckpt.updates_done = 1;
  ckpt.trainer_rng = Rng(3).state();
  ckpt.trainer_rng.has_spare_gaussian = true;
  ckpt.trainer_rng.spare_gaussian = value;
  ckpt.episodes = 2;
  ckpt.best_episode_reward = value;
  ckpt.curve.push_back({40, value});
  ckpt.recent_episode_rewards = {1.5, value};
  ActorCheckpoint actor;
  actor.env_seed = 100;
  actor.env_rng = Rng(4).state();
  actor.episode_reward = value;
  actor.episode_ops.push_back(
      EdaOperation::Filter(1, CompareOp::kEq, Value(value), 2));
  ckpt.actors.push_back(actor);
  ckpt.adam_step = 1;
  ckpt.adam_m.emplace_back(2, 3, 0.25);
  ckpt.adam_m[0].data()[4] = value;
  ckpt.adam_v.emplace_back(2, 3, 0.5);
  return ckpt;
}

// Non-finite rewards, signed zeros and subnormals must survive a
// checkpoint bit for bit: a run whose rewards ever went NaN or infinite
// would otherwise write snapshots it cannot read back, and resume would
// silently start over.
TEST(CheckpointPayloadTest, EveryDoubleRoundTripsBitExactly) {
  ParameterStore store;
  std::vector<Parameter*> params = {store.Create("w", 2, 3)};
  const std::string path = TempPath("exact_doubles.ckpt");
  constexpr struct {
    const char* label;
    double value;
  } kValues[] = {
      {"NaN", std::numeric_limits<double>::quiet_NaN()},
      {"+inf", std::numeric_limits<double>::infinity()},
      {"-inf", -std::numeric_limits<double>::infinity()},
      {"-0.0", -0.0},
      {"denorm_min", std::numeric_limits<double>::denorm_min()},
  };
  for (const auto& [label, value] : kValues) {
    const TrainingCheckpoint ckpt = ExactDoubleCheckpoint(value);

    TrainingCheckpoint decoded;
    const Status status = DecodeCheckpointPayload(
        EncodeCheckpointPayload(params, ckpt), params, "probe", &decoded);
    ASSERT_TRUE(status.ok()) << label << ": " << status;
    ExpectExactDoubles(decoded, value, std::string(label) + " (payload)");

    RemoveCheckpointFamily(path);
    ASSERT_TRUE(SaveTrainingCheckpoint(path, params, ckpt).ok()) << label;
    TrainingCheckpoint loaded;
    const Status load = LoadTrainingCheckpoint(path, params, &loaded);
    ASSERT_TRUE(load.ok()) << label << ": " << load;
    ExpectExactDoubles(loaded, value, std::string(label) + " (file)");
  }
  RemoveCheckpointFamily(path);
}

// A container of the retired v2 spelling is refused by its magic line
// (there is no v2 reader), so weight loads fail with a Status naming the
// format that is read, and a resuming trainer starts over.
TEST(CheckpointPayloadTest, V1ContainerIsRefusedAndResumeStartsFresh) {
  const std::string path = TempPath("v2_container.ckpt");
  RemoveCheckpointFamily(path);

  // A real mid-run snapshot from a differently-seeded trainer: resuming
  // from it would continue that run, not reproduce a fresh seed-17 run.
  TrainSetup other = MakeSetup(1);
  TrainerOptions other_options = BaseOptions();
  other_options.seed = 99;
  other_options.total_steps = 80;
  other_options.checkpoint_path = path;
  other_options.checkpoint_every_updates = 1;
  ParallelPpoTrainer(other.envs, other.policy.get(), other_options).Train();
  std::string payload;
  ASSERT_TRUE(ReadChecksummedFile(path, "ATENA-CKPT v3", &payload).ok());
  RemoveCheckpointFamily(path);
  ASSERT_TRUE(WriteChecksummedFile(path, "ATENA-CKPT v2", payload).ok());

  TrainSetup setup = MakeSetup(1);
  const std::vector<Parameter*> params = setup.policy->Parameters();
  std::vector<std::vector<double>> weights_before;
  for (const Parameter* p : params) weights_before.push_back(p->value.data());
  TrainingCheckpoint ckpt;
  const Status loaded = LoadTrainingCheckpoint(path, params, &ckpt);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find("ATENA-CKPT v3"), std::string::npos)
      << loaded;
  const Status weights = LoadPolicyParameters(path, params);
  EXPECT_FALSE(weights.ok());
  EXPECT_NE(weights.message().find("ATENA-CKPT v3"), std::string::npos)
      << weights;
  for (size_t k = 0; k < params.size(); ++k) {
    EXPECT_EQ(params[k]->value.data(), weights_before[k]) << "parameter " << k;
  }

  TrainSetup plain = MakeSetup(1);
  const TrainingResult fresh =
      ParallelPpoTrainer(plain.envs, plain.policy.get(), BaseOptions())
          .Train();
  TrainerOptions options = BaseOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_updates = 1;
  options.resume = true;
  const TrainingResult resumed =
      ParallelPpoTrainer(setup.envs, setup.policy.get(), options).Train();
  ExpectResultsIdentical(fresh, resumed);
  RemoveCheckpointFamily(path);
}

TEST_F(CheckpointContainerTest, AdamStateRoundTripProducesIdenticalSteps) {
  // Two Adam instances — one stepped continuously, one restored from the
  // serialized checkpoint state — must produce bit-identical updates.
  TrainingCheckpoint loaded;
  ASSERT_TRUE(LoadTrainingCheckpoint(path_, Params(), &loaded).ok());
  ASSERT_GT(loaded.adam_step, 0);
  ASSERT_FALSE(loaded.adam_m.empty());

  // Build two identical parameter sets from the checkpoint weights.
  ParameterStore store_a, store_b;
  std::vector<Parameter*> params_a, params_b;
  for (size_t k = 0; k < loaded.param_values.size(); ++k) {
    const Matrix& w = loaded.param_values[k];
    params_a.push_back(store_a.Create("p" + std::to_string(k), w.rows(),
                                      w.cols()));
    params_b.push_back(store_b.Create("p" + std::to_string(k), w.rows(),
                                      w.cols()));
    params_a.back()->value = w;
    params_b.back()->value = w;
  }

  Adam adam_a, adam_b;
  adam_a.SetState(loaded.adam_step, loaded.adam_m, loaded.adam_v);
  adam_b.SetState(loaded.adam_step, loaded.adam_m, loaded.adam_v);
  EXPECT_EQ(adam_a.step_count(), loaded.adam_step);

  // Apply the same synthetic gradients to both and compare every weight.
  for (int step = 0; step < 3; ++step) {
    for (size_t k = 0; k < params_a.size(); ++k) {
      auto& ga = params_a[k]->grad.data();
      auto& gb = params_b[k]->grad.data();
      for (size_t i = 0; i < ga.size(); ++i) {
        const double g =
            0.01 * static_cast<double>((i + k + 1) % 7) - 0.02 * step;
        ga[i] = g;
        gb[i] = g;
      }
    }
    adam_a.Step(params_a);
    adam_b.Step(params_b);
    for (size_t k = 0; k < params_a.size(); ++k) {
      ASSERT_EQ(params_a[k]->value.data(), params_b[k]->value.data())
          << "step " << step << " parameter " << k;
    }
  }
}

}  // namespace
}  // namespace atena
