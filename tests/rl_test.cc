#include <gtest/gtest.h>

#include "data/registry.h"
#include "rl/parallel_trainer.h"
#include "rl/policy.h"
#include "rl/trainer.h"

namespace atena {
namespace {

Dataset SmallDataset() {
  auto d = MakeDataset("cyber2");
  EXPECT_TRUE(d.ok());
  return d.value();
}

EnvConfig SmallConfig() {
  EnvConfig config;
  config.episode_length = 5;
  config.num_term_bins = 4;
  return config;
}

TEST(ApplyActionTest, StructuredActionsGoThroughStep) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  ActionRecord record;
  record.structured.type = OpType::kGroup;
  record.structured.group_column = d.table->FindColumn("method");
  record.structured.agg_func = static_cast<int>(AggFunc::kCount);
  StepOutcome outcome = ApplyAction(&env, record);
  EXPECT_TRUE(outcome.valid);
  EXPECT_EQ(outcome.op.type, OpType::kGroup);
}

TEST(ApplyActionTest, ConcreteActionsGoThroughStepOperation) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  ActionRecord record;
  record.is_concrete = true;
  record.concrete = EdaOperation::Filter(d.table->FindColumn("method"),
                                         CompareOp::kEq,
                                         Value(std::string("POST")));
  StepOutcome outcome = ApplyAction(&env, record);
  EXPECT_TRUE(outcome.valid);
  EXPECT_TRUE(outcome.op.filter.term == Value(std::string("POST")));
}

/// A fixed scripted policy over the structured action space, used to test
/// the trainer's bookkeeping independent of any learning.
class ScriptedPolicy final : public Policy {
 public:
  explicit ScriptedPolicy(std::vector<EnvAction> script)
      : script_(std::move(script)) {}

  using Policy::ActBatch;
  std::vector<PolicyStep> ActBatch(const Matrix& observations,
                                   const std::vector<Rng*>&) override {
    std::vector<PolicyStep> steps(static_cast<size_t>(observations.rows()));
    for (PolicyStep& step : steps) {
      step.action.structured = script_[index_++ % script_.size()];
      step.log_prob = -1.0;
    }
    return steps;
  }
  BatchEvaluation ForwardBatch(
      const Matrix& observations,
      const std::vector<ActionRecord>& actions) override {
    BatchEvaluation eval;
    eval.log_probs.assign(actions.size(), -1.0);
    eval.entropies.assign(actions.size(), 0.5);
    eval.values.assign(actions.size(), 0.0);
    (void)observations;
    ++forward_batches;
    return eval;
  }
  void BackwardBatch(const std::vector<SampleGrad>& grads) override {
    backward_batches += static_cast<int>(!grads.empty());
  }
  std::vector<Parameter*> Parameters() override { return {&dummy_}; }

  int forward_batches = 0;
  int backward_batches = 0;

 private:
  std::vector<EnvAction> script_;
  size_t index_ = 0;
  Parameter dummy_{Matrix(1, 1), Matrix(1, 1), {}};
};

TEST(TrainerBookkeepingTest, CountsEpisodesAndTracksBest) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());

  // Alternate GROUP(method) and BACK: all valid, zero reward (no signal).
  EnvAction group;
  group.type = OpType::kGroup;
  group.group_column = d.table->FindColumn("method");
  group.agg_func = static_cast<int>(AggFunc::kCount);
  EnvAction back;
  back.type = OpType::kBack;
  ScriptedPolicy policy({group, back});

  TrainerOptions options;
  options.total_steps = 100;  // 20 episodes of 5 steps
  options.rollout_length = 25;
  options.minibatch_size = 25;
  options.epochs_per_update = 1;
  ParallelPpoTrainer trainer({&env}, &policy, options);
  TrainingResult result = trainer.Train();

  EXPECT_EQ(result.episodes, 20);
  EXPECT_EQ(result.curve.size(), 4u);  // 100 / 25 rollouts
  EXPECT_EQ(result.best_episode_ops.size(), 5u);
  // 4 rollouts x 1 epoch x 1 minibatch.
  EXPECT_EQ(policy.backward_batches, 4);
  EXPECT_GE(policy.forward_batches, 4);
}

TEST(TrainerBookkeepingTest, BestEpisodeRewardIsMaxOverEpisodes) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  // All-BACK policy: at root, BACK is invalid -> -1 per step. After any
  // valid op it alternates; here every step is invalid, so every episode
  // scores -5 and best == -5.
  EnvAction back;
  back.type = OpType::kBack;
  ScriptedPolicy policy({back});
  TrainerOptions options;
  options.total_steps = 50;
  options.rollout_length = 25;
  options.minibatch_size = 25;
  options.epochs_per_update = 1;
  ParallelPpoTrainer trainer({&env}, &policy, options);
  TrainingResult result = trainer.Train();
  EXPECT_DOUBLE_EQ(result.best_episode_reward, -5.0);
  EXPECT_DOUBLE_EQ(result.final_mean_reward, -5.0);
}

}  // namespace
}  // namespace atena
