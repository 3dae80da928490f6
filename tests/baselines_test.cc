#include <gtest/gtest.h>

#include "baselines/factory.h"
#include "baselines/flat_policy.h"
#include "baselines/greedy.h"
#include "data/registry.h"
#include "nn/optimizer.h"
#include "reward/compound.h"

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

// ---------------------------------------------------------- flat policy

TEST(FlatPolicyTest, TokenModeActionCount) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  FlatPolicy::Options options;
  options.term_mode = FlatPolicy::TermMode::kExplicitTokens;
  options.tokens_per_column = 10;
  options.hidden = {8};
  FlatPolicy policy(env, options);
  // Filters: per column, 9 operators x up-to-10 tokens; groups: C*5*C; +1.
  const int c = d.table->num_columns();
  EXPECT_LE(policy.num_actions(), c * 9 * 10 + c * 5 * c + 1);
  EXPECT_GT(policy.num_actions(), c * 5 * c);  // groups + plenty of filters
}

TEST(FlatPolicyTest, BinModeMatchesFlatActionCount) {
  Dataset d = SmallDataset();
  EnvConfig config = SmallConfig();
  EdaEnvironment env(d, config);
  FlatPolicy::Options options;
  options.term_mode = FlatPolicy::TermMode::kFrequencyBins;
  options.hidden = {8};
  FlatPolicy policy(env, options);
  EXPECT_EQ(policy.num_actions(),
            env.action_space().FlatActionCount(/*terms_per_column=*/0));
}

TEST(FlatPolicyTest, ActAndEvaluateAgree) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  FlatPolicy::Options options;
  options.term_mode = FlatPolicy::TermMode::kFrequencyBins;
  options.hidden = {8};
  FlatPolicy policy(env, options);
  Rng rng(31);
  auto obs = env.Reset();
  PolicyStep step = policy.Act(obs, &rng);
  EXPECT_GE(step.action.flat_index, 0);
  Matrix batch = Matrix::FromRow(obs);
  BatchEvaluation eval = policy.ForwardBatch(batch, {step.action});
  EXPECT_NEAR(eval.log_probs[0], step.log_prob, 1e-9);
  EXPECT_NEAR(eval.values[0], step.value, 1e-9);
}

TEST(FlatPolicyTest, GradientCheck) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  FlatPolicy::Options options;
  options.term_mode = FlatPolicy::TermMode::kFrequencyBins;
  options.hidden = {4};
  options.seed = 77;
  FlatPolicy policy(env, options);
  Rng rng(32);
  auto obs = env.Reset();
  PolicyStep step = policy.Act(obs, &rng);
  Matrix batch = Matrix::FromRow(obs);
  std::vector<ActionRecord> actions = {step.action};

  const double c_logp = 1.1, c_ent = -0.4, c_val = 0.6;
  auto loss = [&]() {
    BatchEvaluation e = policy.ForwardBatch(batch, actions);
    return c_logp * e.log_probs[0] + c_ent * e.entropies[0] +
           c_val * e.values[0];
  };
  ZeroGradients(policy.Parameters());
  policy.ForwardBatch(batch, actions);
  std::vector<SampleGrad> grads(1);
  grads[0].d_log_prob = c_logp;
  grads[0].d_entropy = c_ent;
  grads[0].d_value = c_val;
  policy.BackwardBatch(grads);

  for (Parameter* p : policy.Parameters()) {
    for (size_t i = 0; i < p->value.size(); i += 211) {
      const double eps = 1e-5;
      const double original = p->value.data()[i];
      p->value.data()[i] = original + eps;
      double plus = loss();
      p->value.data()[i] = original - eps;
      double minus = loss();
      p->value.data()[i] = original;
      EXPECT_NEAR(p->grad.data()[i], (plus - minus) / (2 * eps), 1e-4);
    }
  }
}

TEST(FlatPolicyTest, TokenModeEmitsConcreteFilters) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  FlatPolicy::Options options;
  options.term_mode = FlatPolicy::TermMode::kExplicitTokens;
  options.hidden = {8};
  FlatPolicy policy(env, options);
  Rng rng(33);
  auto obs = env.Reset();
  bool saw_concrete_filter = false;
  for (int i = 0; i < 200 && !saw_concrete_filter; ++i) {
    PolicyStep step = policy.Act(obs, &rng);
    if (step.action.is_concrete) {
      EXPECT_EQ(step.action.concrete.type, OpType::kFilter);
      EXPECT_FALSE(step.action.concrete.filter.term.is_null());
      saw_concrete_filter = true;
    }
  }
  EXPECT_TRUE(saw_concrete_filter);
}

// --------------------------------------------------------------- greedy

TEST(GreedyTest, ProducesFullValidEpisode) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  auto reward = MakeStandardReward(&env);
  ASSERT_TRUE(reward.ok());
  env.SetRewardSignal(reward.value().get());
  GreedyOptions options;
  EdaNotebook notebook = RunGreedyEpisode(&env, options, "Greedy-CR");
  // Greedy always picks a valid candidate, so every step is an entry.
  EXPECT_EQ(notebook.entries.size(),
            static_cast<size_t>(SmallConfig().episode_length));
  EXPECT_EQ(notebook.generator, "Greedy-CR");
}

TEST(GreedyTest, PicksHighRewardFirstStep) {
  // With the compound reward, greedy's opening move should not be BACK
  // (invalid) and should collect a clearly positive reward.
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  auto reward = MakeStandardReward(&env);
  ASSERT_TRUE(reward.ok());
  env.SetRewardSignal(reward.value().get());
  EdaNotebook notebook = RunGreedyEpisode(&env, GreedyOptions(), "g");
  ASSERT_FALSE(notebook.entries.empty());
  EXPECT_NE(notebook.entries[0].op.type, OpType::kBack);
  EXPECT_GT(notebook.entries[0].reward, 0.0);
}

// -------------------------------------------------------------- factory

TEST(FactoryTest, NamesAreStable) {
  EXPECT_STREQ(BaselineName(BaselineKind::kAtena), "ATENA");
  EXPECT_STREQ(BaselineName(BaselineKind::kOtsDrlB), "OTS-DRL-B");
  EXPECT_EQ(AllBaselines().size(), 6u);
}

class BaselineRunTest : public ::testing::TestWithParam<BaselineKind> {};

TEST_P(BaselineRunTest, ProducesNotebook) {
  Dataset d = SmallDataset();
  AtenaOptions options;
  options.env = SmallConfig();
  options.trainer.total_steps = 400;
  options.trainer.rollout_length = 64;
  options.policy.hidden = {8};
  auto run = RunBaseline(GetParam(), d, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run.value().notebook.entries.empty());
  EXPECT_EQ(run.value().notebook.generator,
            std::string(BaselineName(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, BaselineRunTest,
    ::testing::Values(BaselineKind::kGreedyIO, BaselineKind::kGreedyCR,
                      BaselineKind::kAtnIO, BaselineKind::kOtsDrl,
                      BaselineKind::kOtsDrlB, BaselineKind::kAtena),
    [](const ::testing::TestParamInfo<BaselineKind>& info) {
      std::string name = BaselineName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace atena
