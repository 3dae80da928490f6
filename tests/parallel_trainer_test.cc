#include <gtest/gtest.h>

#include <memory>

#include "baselines/flat_policy.h"
#include "core/twofold_policy.h"
#include "data/registry.h"
#include "reward/compound.h"
#include "rl/parallel_trainer.h"

namespace atena {
namespace {

EnvConfig ConfigWithSeed(uint64_t seed) {
  EnvConfig config;
  config.episode_length = 5;
  config.num_term_bins = 4;
  config.seed = seed;
  return config;
}

TEST(ParallelTrainerTest, LearnsAcrossMultipleActors) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  std::vector<std::unique_ptr<EdaEnvironment>> owned;
  std::vector<EdaEnvironment*> envs;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    owned.push_back(std::make_unique<EdaEnvironment>(dataset.value(),
                                                     ConfigWithSeed(seed)));
    envs.push_back(owned.back().get());
  }

  TwofoldPolicy::Options policy_options;
  policy_options.hidden = {16};
  TwofoldPolicy policy(envs[0]->observation_dim(), envs[0]->action_space(),
                       policy_options);

  TrainerOptions options;
  options.total_steps = 2400;
  options.rollout_length = 90;
  options.final_eval_episodes = 4;
  options.seed = 11;
  ParallelPpoTrainer trainer(envs, &policy, options);
  TrainingResult result = trainer.Train();

  ASSERT_GE(result.curve.size(), 2u);
  // With no reward signal attached, all reward comes from the -1 no-op
  // penalty; a learning policy drives the mean toward 0.
  EXPECT_GT(result.final_mean_reward,
            result.curve.front().mean_episode_reward);
  EXPECT_GT(result.episodes, 100);
  EXPECT_FALSE(result.best_episode_ops.empty());
  EXPECT_LE(result.best_episode_ops.size(), 5u);
}

TEST(ParallelTrainerTest, EpisodeAccountingMatchesStepBudget) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  std::vector<std::unique_ptr<EdaEnvironment>> owned;
  std::vector<EdaEnvironment*> envs;
  for (uint64_t seed = 5; seed <= 6; ++seed) {
    owned.push_back(std::make_unique<EdaEnvironment>(dataset.value(),
                                                     ConfigWithSeed(seed)));
    envs.push_back(owned.back().get());
  }
  TwofoldPolicy::Options policy_options;
  policy_options.hidden = {8};
  TwofoldPolicy policy(envs[0]->observation_dim(), envs[0]->action_space(),
                       policy_options);
  TrainerOptions options;
  options.total_steps = 200;  // 40 episodes of 5 steps across 2 actors
  options.rollout_length = 40;
  options.final_eval_episodes = 0;
  ParallelPpoTrainer trainer(envs, &policy, options);
  TrainingResult result = trainer.Train();
  EXPECT_EQ(result.episodes, 40);
  EXPECT_EQ(result.curve.back().step, 200);
}

// Collects `count` distinct observations by running `policy` on `env`.
std::vector<std::vector<double>> CollectObservations(EdaEnvironment* env,
                                                     Policy* policy,
                                                     int count) {
  Rng rng(404);
  std::vector<std::vector<double>> observations;
  std::vector<double> obs = env->Reset();
  for (int i = 0; i < count; ++i) {
    observations.push_back(obs);
    PolicyStep step = policy->Act(obs, &rng);
    StepOutcome outcome = ApplyAction(env, step.action);
    obs = outcome.done ? env->Reset() : std::move(outcome.observation);
  }
  return observations;
}

void ExpectStepsBitIdentical(const PolicyStep& a, const PolicyStep& b) {
  EXPECT_EQ(a.log_prob, b.log_prob);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.action.is_concrete, b.action.is_concrete);
  EXPECT_EQ(a.action.flat_index, b.action.flat_index);
  EXPECT_EQ(static_cast<int>(a.action.structured.type),
            static_cast<int>(b.action.structured.type));
  EXPECT_EQ(a.action.structured.filter_column, b.action.structured.filter_column);
  EXPECT_EQ(a.action.structured.filter_op, b.action.structured.filter_op);
  EXPECT_EQ(a.action.structured.filter_bin, b.action.structured.filter_bin);
  EXPECT_EQ(a.action.structured.group_column, b.action.structured.group_column);
  EXPECT_EQ(a.action.structured.agg_func, b.action.structured.agg_func);
  EXPECT_EQ(a.action.structured.agg_column, b.action.structured.agg_column);
}

// The batched-acting contract: ActBatch over N rows consumes the rng
// exactly as N per-sample Act calls in row order — identical actions,
// log-probs and critic values, bit for bit.
TEST(ActBatchTest, MatchesPerSampleActOnSharedRngStream) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  EdaEnvironment env(dataset.value(), ConfigWithSeed(21));

  TwofoldPolicy::Options twofold_options;
  twofold_options.hidden = {12};
  TwofoldPolicy twofold(env.observation_dim(), env.action_space(),
                        twofold_options);
  FlatPolicy::Options flat_options;
  flat_options.term_mode = FlatPolicy::TermMode::kFrequencyBins;
  flat_options.hidden = {12};
  FlatPolicy flat(env, flat_options);

  for (Policy* policy : std::vector<Policy*>{&twofold, &flat}) {
    auto observations = CollectObservations(&env, policy, 6);
    const int n = static_cast<int>(observations.size());
    Matrix batch(n, static_cast<int>(observations[0].size()));
    for (int r = 0; r < n; ++r) {
      std::copy(observations[static_cast<size_t>(r)].begin(),
                observations[static_cast<size_t>(r)].end(), batch.RowPtr(r));
    }

    Rng rng_batched(777);
    Rng rng_serial(777);
    std::vector<PolicyStep> batched = policy->ActBatch(batch, &rng_batched);
    ASSERT_EQ(batched.size(), static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      PolicyStep serial =
          policy->Act(observations[static_cast<size_t>(r)], &rng_serial);
      ExpectStepsBitIdentical(batched[static_cast<size_t>(r)], serial);
    }
    // Both consumed the same number of draws.
    EXPECT_EQ(rng_batched.NextDouble(), rng_serial.NextDouble());

    // Null rng = greedy, also row-equivalent.
    std::vector<PolicyStep> greedy_batched = policy->ActBatch(batch, nullptr);
    for (int r = 0; r < n; ++r) {
      PolicyStep greedy =
          policy->ActGreedy(observations[static_cast<size_t>(r)]);
      ExpectStepsBitIdentical(greedy_batched[static_cast<size_t>(r)], greedy);
    }
  }
}

void ExpectResultsBitIdentical(const TrainingResult& a,
                               const TrainingResult& b) {
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.best_episode_reward, b.best_episode_reward);
  EXPECT_EQ(a.final_mean_reward, b.final_mean_reward);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].step, b.curve[i].step);
    EXPECT_EQ(a.curve[i].mean_episode_reward, b.curve[i].mean_episode_reward);
  }
  ASSERT_EQ(a.best_episode_ops.size(), b.best_episode_ops.size());
  for (size_t i = 0; i < a.best_episode_ops.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.best_episode_ops[i].type),
              static_cast<int>(b.best_episode_ops[i].type));
  }
}

void ExpectWeightsBitIdentical(TwofoldPolicy& a, TwofoldPolicy& b) {
  auto params_a = a.Parameters();
  auto params_b = b.Parameters();
  ASSERT_EQ(params_a.size(), params_b.size());
  for (size_t k = 0; k < params_a.size(); ++k) {
    ASSERT_EQ(params_a[k]->value.size(), params_b[k]->value.size());
    for (size_t i = 0; i < params_a[k]->value.size(); ++i) {
      ASSERT_EQ(params_a[k]->value.data()[i], params_b[k]->value.data()[i])
          << params_a[k]->name << " element " << i;
    }
  }
}

// The central determinism guarantee of the parallel stepping path
// (DESIGN.md §9): the worker-thread count is a pure wall-clock knob.
// Training 4 actors at 1, 2 and 4 stepping threads must produce the same
// TrainingResult and the same final network weights, bit for bit.
TEST(ParallelTrainerTest, ThreadCountNeverChangesTrainingOutput) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());

  struct Run {
    TrainingResult result;
    std::unique_ptr<TwofoldPolicy> policy;
  };
  auto train = [&](int num_threads) {
    std::vector<std::unique_ptr<EdaEnvironment>> owned;
    std::vector<EdaEnvironment*> envs;
    for (uint64_t seed = 61; seed <= 64; ++seed) {
      owned.push_back(std::make_unique<EdaEnvironment>(dataset.value(),
                                                       ConfigWithSeed(seed)));
      envs.push_back(owned.back().get());
    }
    TwofoldPolicy::Options policy_options;
    policy_options.hidden = {10};
    Run run;
    run.policy = std::make_unique<TwofoldPolicy>(
        envs[0]->observation_dim(), envs[0]->action_space(), policy_options);
    TrainerOptions options;
    options.total_steps = 400;
    options.rollout_length = 80;
    options.final_eval_episodes = 2;
    options.seed = 97;
    options.num_threads = num_threads;
    ParallelPpoTrainer trainer(envs, run.policy.get(), options);
    EXPECT_EQ(trainer.num_threads(), num_threads);
    run.result = trainer.Train();
    return run;
  };

  Run serial = train(1);
  for (int num_threads : {2, 4}) {
    SCOPED_TRACE("num_threads = " + std::to_string(num_threads));
    Run threaded = train(num_threads);
    ExpectResultsBitIdentical(serial.result, threaded.result);
    ExpectWeightsBitIdentical(*serial.policy, *threaded.policy);
  }
}

// Same guarantee with the full compound reward attached: each actor owns a
// stateful CompoundReward clone around one shared trained classifier — the
// exact wiring RunAtena uses — and concurrent stepping through the shared
// display cache must not perturb a single bit of the result.
TEST(ParallelTrainerTest, ThreadedCompoundRewardMatchesSerial) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());

  // Train the classifier and calibrate the weights once, off to the side.
  EdaEnvironment proto_env(dataset.value(), ConfigWithSeed(71));
  CompoundReward::Options reward_options;
  reward_options.calibration_episodes = 3;
  auto proto = MakeStandardReward(&proto_env, reward_options);
  ASSERT_TRUE(proto.ok());

  auto train = [&](int num_threads) {
    std::vector<std::unique_ptr<EdaEnvironment>> owned;
    std::vector<std::unique_ptr<CompoundReward>> rewards;
    std::vector<EdaEnvironment*> envs;
    for (uint64_t seed = 71; seed <= 73; ++seed) {
      owned.push_back(std::make_unique<EdaEnvironment>(dataset.value(),
                                                       ConfigWithSeed(seed)));
      rewards.push_back(std::make_unique<CompoundReward>(
          proto.value()->coherency(), proto.value()->options()));
      owned.back()->SetRewardSignal(rewards.back().get());
      envs.push_back(owned.back().get());
    }
    TwofoldPolicy::Options policy_options;
    policy_options.hidden = {8};
    auto policy = std::make_unique<TwofoldPolicy>(
        envs[0]->observation_dim(), envs[0]->action_space(), policy_options);
    TrainerOptions options;
    options.total_steps = 150;
    options.rollout_length = 30;
    options.final_eval_episodes = 1;
    options.seed = 3;
    options.num_threads = num_threads;
    ParallelPpoTrainer trainer(envs, policy.get(), options);
    return trainer.Train();
  };

  TrainingResult serial = train(1);
  TrainingResult threaded = train(3);
  ExpectResultsBitIdentical(serial, threaded);
}

// Thread-count resolution: 0 = auto (capped at hardware concurrency),
// explicit values clamp to the actor count.
TEST(ParallelTrainerTest, ThreadCountResolution) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  EdaEnvironment env_a(dataset.value(), ConfigWithSeed(81));
  EdaEnvironment env_b(dataset.value(), ConfigWithSeed(82));
  TwofoldPolicy::Options policy_options;
  policy_options.hidden = {8};
  TwofoldPolicy policy(env_a.observation_dim(), env_a.action_space(),
                       policy_options);

  TrainerOptions options;
  options.num_threads = 16;  // explicit: clamped to the 2 actors
  ParallelPpoTrainer clamped({&env_a, &env_b}, &policy, options);
  EXPECT_EQ(clamped.num_threads(), 2);

  options.num_threads = 0;  // auto: min(actors, hardware concurrency)
  ParallelPpoTrainer automatic({&env_a, &env_b}, &policy, options);
  EXPECT_EQ(automatic.num_threads(), ThreadPool::DefaultThreads(2));
  EXPECT_LE(automatic.num_threads(), 2);
}

// Multi-actor acting must cost one network forward per lockstep tick, not
// one per actor — the point of the batched acting path.
TEST(ParallelTrainerTest, FourActorsOneForwardPerTick) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  std::vector<std::unique_ptr<EdaEnvironment>> owned;
  std::vector<EdaEnvironment*> envs;
  for (uint64_t seed = 41; seed <= 44; ++seed) {
    owned.push_back(std::make_unique<EdaEnvironment>(dataset.value(),
                                                     ConfigWithSeed(seed)));
    envs.push_back(owned.back().get());
  }
  TwofoldPolicy::Options policy_options;
  policy_options.hidden = {8};
  TwofoldPolicy policy(envs[0]->observation_dim(), envs[0]->action_space(),
                       policy_options);
  TrainerOptions options;
  options.total_steps = 200;
  options.rollout_length = 40;  // 10 ticks per rollout across 4 actors
  options.epochs_per_update = 1;
  options.minibatch_size = 64;  // one ForwardBatch per update
  options.final_eval_episodes = 0;
  ParallelPpoTrainer trainer(envs, &policy, options);
  trainer.Train();

  // 200 steps / 4 actors = 50 acting ticks; 5 rollouts x 1 update forward.
  // Episodes (length 5) end exactly at each 10-step stream boundary, so no
  // bootstrap forwards. Per-actor acting would instead cost 200+ passes.
  const int64_t acting_ticks = 50;
  const int64_t update_forwards = 5;
  EXPECT_EQ(policy.forward_passes(), acting_ticks + update_forwards);
}

}  // namespace
}  // namespace atena
