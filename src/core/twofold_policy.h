#ifndef ATENA_CORE_TWOFOLD_POLICY_H_
#define ATENA_CORE_TWOFOLD_POLICY_H_

#include <span>
#include <vector>

#include "rl/policy.h"

namespace atena {

/// ATENA's novel actor network (paper §5, Figure 3).
///
/// Instead of a flat softmax with one node per distinct action (100K+ nodes
/// even in the prototype environment), the network ends in:
///  1. a *Pre-Output Layer* with one node per operation type plus one node
///     per parameter **value** — |OP| + Σ_p |V(p)| nodes in total; and
///  2. a *Multi-Softmax Layer*: a separate softmax segment for the
///     operation type and for each parameter. The operation type is
///     sampled first; only the chosen operation's parameter segments are
///     then sampled (FILTER → column/operator/term-bin, GROUP →
///     key-column/aggregation/target-column, BACK → nothing).
///
/// The joint probability of an action factorizes as
/// π(a|s) = p(op|s) · Π_{p ∈ P^op} p(v_p|s), and the policy entropy used
/// for the exploration bonus is the exact joint entropy
/// H = H(op) + Σ_o p(o) Σ_{p ∈ P^o} H(segment_p).
///
/// A critic value head shares the dense trunk (Advantage Actor-Critic with
/// PPO, paper §6.1).
///
/// The network is the ActorCriticNet FlatPolicy also uses, with a policy
/// head |OP| + Σ_p |V(p)| wide. ActBatch evaluates any number of actors'
/// or sessions' observations in a single forward pass.
class TwofoldPolicy final : public Policy {
 public:
  struct Options {
    std::vector<int> hidden = {64, 64};
    uint64_t seed = 17;
  };

  TwofoldPolicy(int observation_dim, const ActionSpace& space)
      : TwofoldPolicy(observation_dim, space, Options()) {}
  TwofoldPolicy(int observation_dim, const ActionSpace& space,
                Options options);

  using Policy::ActBatch;
  /// Acts through the policy's own acting workspace (the overload below).
  std::vector<PolicyStep> ActBatch(const Matrix& observations,
                                   const std::vector<Rng*>& rngs) override;
  /// The acting implementation: the same contract as Policy::ActBatch, run
  /// as a const pass on the caller-owned `ws`. Threads may act at once on
  /// one network, each through its own workspace — the serving tick acts
  /// row blocks of one frozen snapshot this way (DESIGN.md §11).
  std::vector<PolicyStep> ActBatch(const Matrix& observations,
                                   const std::vector<Rng*>& rngs,
                                   Workspace* ws) const;
  BatchEvaluation ForwardBatch(
      const Matrix& observations,
      const std::vector<ActionRecord>& actions) override;
  void BackwardBatch(const std::vector<SampleGrad>& grads) override;
  std::vector<Parameter*> Parameters() override { return net_.Parameters(); }
  void PrepareForServing() override { net_.PrepareForServing(); }

  /// Width of the pre-output layer: |OP| + Σ_p |V(p)| (paper §5).
  int pre_output_width() const { return total_nodes_; }

  /// All learnable tensors of the policy (for checkpointing).
  const ParameterStore& parameter_store() const { return net_.store(); }

  /// Number of full network forward passes executed so far, counting a
  /// batched pass once regardless of batch size. Lets tests assert that
  /// multi-actor acting really is one forward per lockstep tick.
  int64_t forward_passes() const { return net_.forward_passes(); }

 private:
  /// Segment layout: 0 = op type; 1..3 = filter params; 4..6 = group params.
  static constexpr int kNumSegments = 7;

  /// Views of one row's head statistics: softmax probabilities and their
  /// SafeLog values (both laid out like the logits row, total_nodes_ wide)
  /// and the kNumSegments segment entropies. ComputeHead fills them once
  /// per row; ActionLogProb, JointEntropy and BackwardBatch only read them.
  struct HeadRow {
    double* probs;
    double* logs;
    double* entropies;
  };

  /// Softmax of segment `segment` of one logits row into `probs` (laid out
  /// like the logits row).
  void SoftmaxSegment(const double* logits, int segment, double* probs) const;
  /// Per-segment softmax of one logits row, the SafeLog of every
  /// probability and every segment's entropy.
  void ComputeHead(const double* logits, HeadRow head) const;
  /// Joint entropy (see class comment).
  double JointEntropy(const HeadRow& head) const;
  /// Joint log-probability of a structured action.
  double ActionLogProb(const HeadRow& head, const EnvAction& action) const;
  /// Parameter-segment indices of operation-type `op` (empty for BACK).
  static std::span<const int> OpSegments(int op);
  /// Σ of the entropies of `op`'s parameter segments, summed from +0.0 in
  /// OpSegments order.
  static double ParamEntropy(const double* entropies, int op);
  /// The chosen value index inside segment `segment` for `action`.
  static int ChosenIndex(const EnvAction& action, int segment);

  /// Samples (or argmaxes, when `rng` is null) one PolicyStep from a
  /// logits row and its critic value. Softmaxes only the op segment and the
  /// chosen operation's parameter segments into `probs` (scratch laid out
  /// like the logits row; segments are independent, so their values equal
  /// ComputeHead's bit for bit) and takes the SafeLog of the chosen entries
  /// alone.
  PolicyStep StepFromRow(const double* logits, double value, Rng* rng,
                         double* probs) const;

  std::vector<int> segment_sizes_;
  std::vector<int> segment_offsets_;
  int total_nodes_ = 0;

  ActorCriticNet net_;
  /// Where the non-const ActBatch runs its passes (training's
  /// ForwardBatch/BackwardBatch pair through the network's own).
  Workspace act_ws_;

  // Caches from the last ForwardBatch for BackwardBatch: one row of head
  // statistics per sample (see HeadRow).
  Matrix batch_probs_;
  Matrix batch_logs_;
  Matrix batch_entropies_;
  std::vector<EnvAction> batch_actions_;
  int batch_size_ = 0;
  // BackwardBatch buffers, reused across minibatches.
  Matrix dlogits_;
  Matrix dvalues_;
};

}  // namespace atena

#endif  // ATENA_CORE_TWOFOLD_POLICY_H_
