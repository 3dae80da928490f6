#include "baselines/factory.h"

#include "baselines/flat_policy.h"
#include "baselines/greedy.h"
#include "common/logging.h"
#include "rl/parallel_trainer.h"

namespace atena {

const char* BaselineName(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kAtnIO:
      return "ATN-IO";
    case BaselineKind::kGreedyIO:
      return "Greedy-IO";
    case BaselineKind::kOtsDrl:
      return "OTS-DRL";
    case BaselineKind::kGreedyCR:
      return "Greedy-CR";
    case BaselineKind::kOtsDrlB:
      return "OTS-DRL-B";
    case BaselineKind::kAtena:
      return "ATENA";
  }
  return "?";
}

std::vector<BaselineKind> AllBaselines() {
  return {BaselineKind::kAtnIO,    BaselineKind::kGreedyIO,
          BaselineKind::kOtsDrl,   BaselineKind::kGreedyCR,
          BaselineKind::kOtsDrlB,  BaselineKind::kAtena};
}

namespace {

CompoundReward::Options InterestingnessOnly(CompoundReward::Options base) {
  base.enable_diversity = false;
  base.enable_coherency = false;
  base.weight_interestingness = 1.0;
  return base;
}

/// Shared DRL driver for the non-ATENA learned baselines: trains `policy`
/// on `env` and extracts the best episode's notebook.
Result<BaselineRun> TrainAndExtract(BaselineKind kind, EdaEnvironment* env,
                                    Policy* policy,
                                    const TrainerOptions& trainer_options) {
  ParallelPpoTrainer trainer({env}, policy, trainer_options);
  BaselineRun run;
  run.kind = kind;
  run.training = trainer.Train();
  double replay_reward = 0.0;
  run.notebook = ReplayOperations(env, run.training.best_episode_ops,
                                  BaselineName(kind), &replay_reward);
  return run;
}

}  // namespace

Result<BaselineRun> RunBaseline(BaselineKind kind, const Dataset& dataset,
                                const AtenaOptions& options) {
  // The full system reuses the core pipeline directly.
  if (kind == BaselineKind::kAtena) {
    ATENA_ASSIGN_OR_RETURN(AtenaResult result, RunAtena(dataset, options));
    BaselineRun run;
    run.kind = kind;
    run.notebook = std::move(result.notebook);
    run.training = std::move(result.training);
    return run;
  }

  EdaEnvironment env(dataset, options.env);

  // Reward: interestingness-only for the 3A/3B baselines, the full
  // compound signal otherwise.
  CompoundReward::Options reward_options = options.reward;
  if (kind == BaselineKind::kAtnIO || kind == BaselineKind::kGreedyIO) {
    reward_options = InterestingnessOnly(reward_options);
  }
  ATENA_ASSIGN_OR_RETURN(auto reward,
                         MakeStandardReward(&env, reward_options));
  env.SetRewardSignal(reward.get());

  switch (kind) {
    case BaselineKind::kGreedyIO:
    case BaselineKind::kGreedyCR: {
      GreedyOptions greedy;
      greedy.seed = options.trainer.seed;
      BaselineRun run;
      run.kind = kind;
      run.notebook = RunGreedyEpisode(&env, greedy, BaselineName(kind));
      return run;
    }
    case BaselineKind::kAtnIO: {
      TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                           options.policy);
      return TrainAndExtract(kind, &env, &policy, options.trainer);
    }
    case BaselineKind::kOtsDrl: {
      FlatPolicy::Options flat;
      flat.term_mode = FlatPolicy::TermMode::kExplicitTokens;
      flat.hidden = options.policy.hidden;
      flat.seed = options.policy.seed;
      FlatPolicy policy(env, flat);
      return TrainAndExtract(kind, &env, &policy, options.trainer);
    }
    case BaselineKind::kOtsDrlB: {
      FlatPolicy::Options flat;
      flat.term_mode = FlatPolicy::TermMode::kFrequencyBins;
      flat.hidden = options.policy.hidden;
      flat.seed = options.policy.seed;
      FlatPolicy policy(env, flat);
      return TrainAndExtract(kind, &env, &policy, options.trainer);
    }
    case BaselineKind::kAtena:
      break;  // handled above
  }
  return Status::Internal("unreachable baseline kind");
}

}  // namespace atena
