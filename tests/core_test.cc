#include <gtest/gtest.h>

#include <cmath>

#include "core/atena.h"
#include "core/twofold_policy.h"
#include "data/registry.h"
#include "nn/optimizer.h"
#include "rl/parallel_trainer.h"

namespace atena {
namespace {

Dataset SmallDataset() {
  auto d = MakeDataset("cyber2");
  EXPECT_TRUE(d.ok());
  return d.value();
}

EnvConfig SmallConfig() {
  EnvConfig config;
  config.episode_length = 6;
  config.num_term_bins = 4;
  return config;
}

TwofoldPolicy::Options TinyPolicy() {
  TwofoldPolicy::Options options;
  options.hidden = {16};
  options.seed = 3;
  return options;
}

// ------------------------------------------------------ twofold policy

TEST(TwofoldPolicyTest, PreOutputWidthMatchesPaperFormula) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                       TinyPolicy());
  // |OP| + Σ_p |V(p)| — dramatically smaller than the flat Cartesian count.
  EXPECT_EQ(policy.pre_output_width(),
            env.action_space().TotalParameterNodes());
  EXPECT_LT(policy.pre_output_width(),
            env.action_space().FlatActionCount(10));
}

TEST(TwofoldPolicyTest, ActProducesValidStructuredActions) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                       TinyPolicy());
  Rng rng(21);
  auto obs = env.Reset();
  const ActionSpace& space = env.action_space();
  for (int i = 0; i < 50; ++i) {
    PolicyStep step = policy.Act(obs, &rng);
    EXPECT_FALSE(step.action.is_concrete);
    const EnvAction& a = step.action.structured;
    EXPECT_GE(static_cast<int>(a.type), 0);
    EXPECT_LT(static_cast<int>(a.type), space.num_op_types);
    EXPECT_LT(a.filter_column, space.num_columns);
    EXPECT_LT(a.filter_op, space.num_filter_ops);
    EXPECT_LT(a.filter_bin, space.num_term_bins);
    EXPECT_LT(a.group_column, space.num_columns);
    EXPECT_LT(a.agg_func, space.num_agg_funcs);
    EXPECT_LT(a.agg_column, space.num_columns);
    EXPECT_LE(step.log_prob, 0.0);
    EXPECT_TRUE(std::isfinite(step.value));
  }
}

TEST(TwofoldPolicyTest, GreedyActionIsDeterministic) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                       TinyPolicy());
  auto obs = env.Reset();
  PolicyStep a = policy.ActGreedy(obs);
  PolicyStep b = policy.ActGreedy(obs);
  EXPECT_EQ(static_cast<int>(a.action.structured.type),
            static_cast<int>(b.action.structured.type));
  EXPECT_EQ(a.action.structured.filter_column,
            b.action.structured.filter_column);
  EXPECT_DOUBLE_EQ(a.log_prob, b.log_prob);
}

TEST(TwofoldPolicyTest, ForwardBatchMatchesActProbabilities) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                       TinyPolicy());
  Rng rng(22);
  auto obs = env.Reset();
  PolicyStep step = policy.Act(obs, &rng);

  Matrix batch = Matrix::FromRow(obs);
  BatchEvaluation eval = policy.ForwardBatch(batch, {step.action});
  EXPECT_NEAR(eval.log_probs[0], step.log_prob, 1e-9);
  EXPECT_NEAR(eval.values[0], step.value, 1e-9);
}

TEST(TwofoldPolicyTest, EntropyBoundedByLogActionCount) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                       TinyPolicy());
  auto obs = env.Reset();
  PolicyStep step = policy.ActGreedy(obs);
  const double entropy =
      policy.ForwardBatch(Matrix::FromRow(obs), {step.action}).entropies[0];
  // Joint entropy cannot exceed log of the flat action count with bins.
  const double bound = std::log(static_cast<double>(
      env.action_space().FlatActionCount(0)));
  EXPECT_GE(entropy, 0.0);
  EXPECT_LE(entropy, bound + 1e-9);
}

/// Finite-difference check of the policy-gradient path: perturb each
/// sampled parameter and compare d(logp)/dθ and d(entropy)/dθ and
/// d(value)/dθ against the analytic BackwardBatch.
TEST(TwofoldPolicyTest, BackwardBatchGradientCheck) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  TwofoldPolicy::Options options;
  options.hidden = {6};
  options.seed = 19;
  TwofoldPolicy policy(env.observation_dim(), env.action_space(), options);
  Rng rng(23);
  auto obs = env.Reset();

  std::vector<ActionRecord> actions;
  Matrix batch(2, static_cast<int>(obs.size()));
  for (int b = 0; b < 2; ++b) {
    PolicyStep step = policy.Act(obs, &rng);
    actions.push_back(step.action);
    for (size_t i = 0; i < obs.size(); ++i) {
      batch(b, static_cast<int>(i)) = obs[i] + 0.01 * b;
    }
  }

  const double c_logp = 0.7, c_ent = -0.3, c_val = 0.5;
  auto loss = [&]() {
    BatchEvaluation e = policy.ForwardBatch(batch, actions);
    double total = 0.0;
    for (int b = 0; b < 2; ++b) {
      total += c_logp * e.log_probs[b] + c_ent * e.entropies[b] +
               c_val * e.values[b];
    }
    return total;
  };

  ZeroGradients(policy.Parameters());
  policy.ForwardBatch(batch, actions);
  std::vector<SampleGrad> grads(2);
  for (auto& g : grads) {
    g.d_log_prob = c_logp;
    g.d_entropy = c_ent;
    g.d_value = c_val;
  }
  policy.BackwardBatch(grads);

  int checked = 0;
  for (Parameter* p : policy.Parameters()) {
    for (size_t i = 0; i < p->value.size(); i += 23) {
      const double eps = 1e-5;
      const double original = p->value.data()[i];
      p->value.data()[i] = original + eps;
      double plus = loss();
      p->value.data()[i] = original - eps;
      double minus = loss();
      p->value.data()[i] = original;
      double numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric, 1e-4)
          << "parameter element " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(TwofoldPolicyTest, ParameterCountReported) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                       TinyPolicy());
  EXPECT_GT(policy.NumParameters(), 0);
}

// -------------------------------------------------------------- trainer

TEST(TrainerTest, LearnsToAvoidInvalidActions) {
  // Reward 0 for any valid action, the env penalty (-1) for no-ops: the
  // agent should learn to keep its actions valid (e.g. not BACK at root).
  Dataset d = SmallDataset();
  EnvConfig config = SmallConfig();
  EdaEnvironment env(d, config);

  TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                       TinyPolicy());
  TrainerOptions trainer_options;
  trainer_options.total_steps = 2500;
  trainer_options.rollout_length = 96;
  trainer_options.seed = 9;
  ParallelPpoTrainer trainer({&env}, &policy, trainer_options);
  TrainingResult result = trainer.Train();

  ASSERT_FALSE(result.curve.empty());
  EXPECT_GT(result.episodes, 100);
  // Early mean reward is strongly negative (random policy hits many
  // no-ops); the final mean should be clearly better.
  double early = result.curve.front().mean_episode_reward;
  EXPECT_GT(result.final_mean_reward, early);
  EXPECT_GT(result.final_mean_reward, -2.0);
  EXPECT_FALSE(result.best_episode_ops.empty());
}

TEST(TrainerTest, CurveIsMonotoneInSteps) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                       TinyPolicy());
  TrainerOptions options;
  options.total_steps = 600;
  options.rollout_length = 64;
  ParallelPpoTrainer trainer({&env}, &policy, options);
  TrainingResult result = trainer.Train();
  for (size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GT(result.curve[i].step, result.curve[i - 1].step);
  }
  EXPECT_EQ(result.curve.back().step, 600);
}

// ---------------------------------------------------------------- ATENA

TEST(AtenaTest, EndToEndProducesNotebook) {
  Dataset d = SmallDataset();
  AtenaOptions options;
  options.env = SmallConfig();
  options.trainer.total_steps = 800;
  options.trainer.rollout_length = 96;
  options.policy = TinyPolicy();
  auto result = RunAtena(d, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result.value().notebook.entries.empty());
  EXPECT_EQ(result.value().notebook.generator, "ATENA");
  EXPECT_EQ(result.value().notebook.dataset_id, "cyber2");
  EXPECT_GT(result.value().training.episodes, 0);
}

TEST(AtenaTest, TrainStepsEnvOverride) {
  AtenaOptions options;
  options.trainer.total_steps = 123;
  setenv("ATENA_TRAIN_STEPS", "456", 1);
  ApplyTrainStepsFromEnv(&options);
  EXPECT_EQ(options.trainer.total_steps, 456);
  unsetenv("ATENA_TRAIN_STEPS");
  ApplyTrainStepsFromEnv(&options);
  EXPECT_EQ(options.trainer.total_steps, 456);  // unchanged when unset
}

}  // namespace
}  // namespace atena
