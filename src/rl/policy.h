#ifndef ATENA_RL_POLICY_H_
#define ATENA_RL_POLICY_H_

#include <vector>

#include "common/random.h"
#include "eda/environment.h"
#include "nn/layers.h"

namespace atena {

/// An action as recorded by a policy. Structured policies (ATENA's twofold
/// architecture, OTS-DRL-B) emit an EnvAction whose filter term the
/// environment resolves from a frequency bin; flat token-level policies
/// (OTS-DRL) emit a fully concrete operation. `flat_index` identifies the
/// action for flat policies' re-evaluation during PPO epochs.
struct ActionRecord {
  EnvAction structured;
  EdaOperation concrete;
  bool is_concrete = false;
  int flat_index = -1;
};

/// What a policy produces for one observation during rollout.
struct PolicyStep {
  ActionRecord action;
  double log_prob = 0.0;
  double value = 0.0;
};

/// Per-sample upstream gradients handed back to the policy during a PPO
/// update: dL/d(log π(a|s)), dL/dH(s), dL/dV(s).
struct SampleGrad {
  double d_log_prob = 0.0;
  double d_entropy = 0.0;
  double d_value = 0.0;
};

/// Result of re-evaluating a batch of stored actions under the current
/// network parameters (needed by PPO's importance ratios).
struct BatchEvaluation {
  std::vector<double> log_probs;
  std::vector<double> entropies;
  std::vector<double> values;
};

/// Abstract actor-critic policy over the EDA action space, with manual
/// backprop through whatever head architecture the concrete policy uses
/// (twofold multi-softmax for ATENA, single flat softmax for the
/// off-the-shelf baselines).
class Policy {
 public:
  virtual ~Policy() = default;

  /// The one acting method. Acts on a batch of observations, one per row,
  /// from one batched forward pass: row i samples from `rngs[i]`
  /// (Boltzmann exploration, directly from the softmax distribution, paper
  /// §5), and a null entry takes that row's greedy action. Rows are
  /// sampled in row order and no row touches another row's stream, so a
  /// row's action, log_prob and value do not depend on the batch it shares
  /// — a cross-session serving batch (src/serve/) acts exactly as each
  /// session would alone. `rngs.size()` must equal `observations.rows()`.
  virtual std::vector<PolicyStep> ActBatch(const Matrix& observations,
                                           const std::vector<Rng*>& rngs) = 0;

  // The three entry points below forward to the method above. They are
  // virtual only so that a decorator can wrap each one.

  /// One observation, sampled from `rng` (null = greedy).
  virtual PolicyStep Act(const std::vector<double>& observation, Rng* rng);
  /// One observation's argmax action (notebook extraction).
  virtual PolicyStep ActGreedy(const std::vector<double>& observation);
  /// Every row samples from the one stream `rng` (null = greedy) in row
  /// order, bit-identical to per-row Act calls on that stream.
  virtual std::vector<PolicyStep> ActBatch(const Matrix& observations,
                                           Rng* rng);

  /// Forward pass over a batch; caches activations for BackwardBatch.
  /// `actions[i]` must have been produced by this policy type.
  virtual BatchEvaluation ForwardBatch(
      const Matrix& observations,
      const std::vector<ActionRecord>& actions) = 0;

  /// Backpropagates the per-sample upstream gradients through the cached
  /// forward pass, accumulating parameter gradients.
  virtual void BackwardBatch(const std::vector<SampleGrad>& grads) = 0;

  virtual std::vector<Parameter*> Parameters() = 0;

  /// Declares the parameters frozen and precomputes inference-only caches
  /// (see Layer::PrepareForServing). Serving snapshots call this once after
  /// loading weights; attempting to train a frozen policy is a fatal error.
  virtual void PrepareForServing() {}

  /// Number of scalar parameters (for reporting network sizes, paper §5's
  /// pre-output vs flat output comparison).
  int64_t NumParameters();
};

/// Applies a recorded action to the environment.
StepOutcome ApplyAction(EdaEnvironment* env, const ActionRecord& action);

/// Recoverable variant for the serving runtime: routes through the
/// environment's TryStep/TryStepOperation, so an out-of-contract step
/// surfaces as a Status (quarantining one session) instead of aborting
/// the whole process. The environment is untouched on failure.
Result<StepOutcome> TryApplyAction(EdaEnvironment* env,
                                   const ActionRecord& action);

}  // namespace atena

#endif  // ATENA_RL_POLICY_H_
