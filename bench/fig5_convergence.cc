// Regenerates paper Figure 5: learning-convergence comparison — mean
// episode reward as a function of training steps for ATENA, OTS-DRL,
// OTS-DRL-B, and the non-learning Greedy-CR horizontal reference — on the
// paper's two representative datasets, Flights #4 and Cyber #2. Prints one
// CSV-style series per (dataset, architecture).
#include <cstdio>

#include "baselines/flat_policy.h"
#include "baselines/greedy.h"
#include "bench_util.h"
#include "core/twofold_policy.h"
#include "reward/compound.h"
#include "rl/parallel_trainer.h"

namespace atena {
namespace {

Result<TrainingResult> TrainArchitecture(const Dataset& dataset,
                                         const std::string& name,
                                         const AtenaOptions& options) {
  EdaEnvironment env(dataset, options.env);
  ATENA_ASSIGN_OR_RETURN(auto reward,
                         MakeStandardReward(&env, options.reward));
  env.SetRewardSignal(reward.get());

  std::unique_ptr<Policy> policy;
  if (name == "ATENA") {
    policy = std::make_unique<TwofoldPolicy>(env.observation_dim(),
                                             env.action_space(),
                                             options.policy);
  } else {
    FlatPolicy::Options flat;
    flat.term_mode = (name == "OTS-DRL")
                         ? FlatPolicy::TermMode::kExplicitTokens
                         : FlatPolicy::TermMode::kFrequencyBins;
    flat.hidden = options.policy.hidden;
    flat.seed = options.policy.seed;
    policy = std::make_unique<FlatPolicy>(env, flat);
  }
  ParallelPpoTrainer trainer({&env}, policy.get(), options.trainer);
  return trainer.Train();
}

/// Mean greedy-CR episode reward (non-learning: a horizontal line).
Result<double> GreedyReference(const Dataset& dataset,
                               const AtenaOptions& options) {
  EdaEnvironment env(dataset, options.env);
  ATENA_ASSIGN_OR_RETURN(auto reward,
                         MakeStandardReward(&env, options.reward));
  env.SetRewardSignal(reward.get());
  GreedyOptions greedy;
  EdaNotebook notebook = RunGreedyEpisode(&env, greedy, "Greedy-CR");
  double total = 0.0;
  for (const auto& step : env.steps()) total += step.reward;
  return total;
}

int Run() {
  AtenaOptions options = bench::ExperimentOptions();
  std::printf("Figure 5: Learning convergence comparison\n");
  std::printf("series,dataset,step,mean_episode_reward\n");
  for (const char* id : {"flights4", "cyber2"}) {
    auto dataset = MakeDataset(id);
    if (!dataset.ok()) return 1;

    auto greedy = GreedyReference(dataset.value(), options);
    if (!greedy.ok()) return 1;
    std::printf("Greedy-CR,%s,0,%.4f\n", id, greedy.value());
    std::printf("Greedy-CR,%s,%d,%.4f\n", id, options.trainer.total_steps,
                greedy.value());

    for (const char* arch : {"ATENA", "OTS-DRL", "OTS-DRL-B"}) {
      auto result = TrainArchitecture(dataset.value(), arch, options);
      if (!result.ok()) {
        std::fprintf(stderr, "%s on %s failed: %s\n", arch, id,
                     result.status().ToString().c_str());
        return 1;
      }
      for (const auto& point : result.value().curve) {
        std::printf("%s,%s,%d,%.4f\n", arch, id, point.step,
                    point.mean_episode_reward);
      }
      std::fprintf(stderr, "  [%s] %s final mean reward %.3f\n", id, arch,
                   result.value().final_mean_reward);
    }
  }
  return 0;
}

}  // namespace
}  // namespace atena

int main() { return atena::Run(); }
