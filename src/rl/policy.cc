#include "rl/policy.h"

namespace atena {

PolicyStep Policy::Act(const std::vector<double>& observation, Rng* rng) {
  return ActBatch(Matrix::FromRow(observation), std::vector<Rng*>(1, rng))[0];
}

PolicyStep Policy::ActGreedy(const std::vector<double>& observation) {
  return Act(observation, /*rng=*/nullptr);
}

std::vector<PolicyStep> Policy::ActBatch(const Matrix& observations,
                                         Rng* rng) {
  return ActBatch(observations,
                  std::vector<Rng*>(static_cast<size_t>(observations.rows()),
                                    rng));
}

int64_t Policy::NumParameters() {
  int64_t total = 0;
  for (Parameter* p : Parameters()) {
    total += static_cast<int64_t>(p->value.size());
  }
  return total;
}

StepOutcome ApplyAction(EdaEnvironment* env, const ActionRecord& action) {
  if (action.is_concrete) {
    return env->StepOperation(action.concrete);
  }
  return env->Step(action.structured);
}

Result<StepOutcome> TryApplyAction(EdaEnvironment* env,
                                   const ActionRecord& action) {
  if (action.is_concrete) {
    return env->TryStepOperation(action.concrete);
  }
  return env->TryStep(action.structured);
}

}  // namespace atena
