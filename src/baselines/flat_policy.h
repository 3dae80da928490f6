#ifndef ATENA_BASELINES_FLAT_POLICY_H_
#define ATENA_BASELINES_FLAT_POLICY_H_

#include <vector>

#include "rl/policy.h"

namespace atena {

/// Off-the-shelf DRL actor (paper baselines 4A/4B): a standard architecture
/// whose output layer has one softmax node per *distinct* flattened action.
///
///  * TermMode::kExplicitTokens — OTS-DRL: filter terms are the ten most
///    common tokens of each column (paper footnote 2), so every filter
///    action is fully concrete.
///  * TermMode::kFrequencyBins  — OTS-DRL-B: the same flat layout but the
///    term dimension uses ATENA's frequency bins instead of tokens.
///
/// Built on the ActorCriticNet TwofoldPolicy also uses, with a policy head
/// one node per flat action wide; only the output layer differs — which is
/// exactly the paper's ablation of the twofold architecture. ActBatch
/// serves any number of actors with a single forward pass.
class FlatPolicy final : public Policy {
 public:
  enum class TermMode { kExplicitTokens, kFrequencyBins };

  struct Options {
    TermMode term_mode = TermMode::kExplicitTokens;
    int tokens_per_column = 10;
    std::vector<int> hidden = {64, 64};
    uint64_t seed = 29;
  };

  /// Enumerates the flat action table from `env`'s dataset (tokens are
  /// taken over the full table, as restricting terms is what makes the
  /// flat layout feasible at all).
  FlatPolicy(const EdaEnvironment& env, Options options);

  int num_actions() const { return static_cast<int>(actions_.size()); }

  using Policy::ActBatch;
  std::vector<PolicyStep> ActBatch(const Matrix& observations,
                                   const std::vector<Rng*>& rngs) override;
  BatchEvaluation ForwardBatch(
      const Matrix& observations,
      const std::vector<ActionRecord>& actions) override;
  void BackwardBatch(const std::vector<SampleGrad>& grads) override;
  std::vector<Parameter*> Parameters() override { return net_.Parameters(); }
  void PrepareForServing() override { net_.PrepareForServing(); }

 private:
  /// Runs the network and softmaxes the logits into `probs` (workspace
  /// outputs are read-only, so the softmax works on a copy). Returns the
  /// critic values (aliasing workspace storage).
  const Matrix& ForwardGraph(const Matrix& observations, Matrix* probs);

  /// Samples (argmaxes when `rng` is null) one step from a probability row.
  PolicyStep StepFromRow(const double* probs, double value, Rng* rng) const;

  std::vector<ActionRecord> actions_;
  ActorCriticNet net_;
  Matrix probs_buf_;

  // ForwardBatch caches for BackwardBatch: per sample, the probability
  // row, its SafeLog row and the entropy, reused across minibatches.
  Matrix batch_probs_;
  Matrix batch_logs_;
  std::vector<double> batch_entropies_;
  std::vector<int> batch_indices_;
  int batch_size_ = 0;
  // BackwardBatch buffers, reused across minibatches.
  Matrix dlogits_;
  Matrix dvalues_;
};

}  // namespace atena

#endif  // ATENA_BASELINES_FLAT_POLICY_H_
