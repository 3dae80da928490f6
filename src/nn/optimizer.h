#ifndef ATENA_NN_OPTIMIZER_H_
#define ATENA_NN_OPTIMIZER_H_

#include <vector>

#include "nn/parameter.h"

namespace atena {

/// Zeroes all accumulated gradients.
void ZeroGradients(const std::vector<Parameter*>& params);

/// Outcome of one ClipGradientsByNorm call. `pre_clip_norm` is the global
/// L2 norm before any rescaling (non-finite when any gradient was NaN/inf);
/// `nonfinite_count` is how many individual gradient values were NaN/inf
/// (all zeroed when > 0), so callers can tell "clipped" from "zeroed-NaN";
/// `clipped` is true when gradients were rescaled to fit `max_norm`.
struct GradClipResult {
  double pre_clip_norm = 0.0;
  int64_t nonfinite_count = 0;
  bool clipped = false;
};

/// Rescales gradients so their global L2 norm is at most `max_norm`.
/// A non-finite norm (an inf/NaN gradient anywhere, e.g. from a degenerate
/// loss) zeroes every gradient instead of scaling — the subsequent
/// optimizer step becomes a no-op rather than poisoning the weights with
/// NaNs — and reports the damage in the returned GradClipResult instead of
/// hiding it.
GradClipResult ClipGradientsByNorm(const std::vector<Parameter*>& params,
                                   double max_norm);

/// Adam (Kingma & Ba). State is keyed by position in the parameter list, so
/// call Step with the same parameter vector every time.
class Adam {
 public:
  struct Options {
    double learning_rate = 3e-4;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
  };

  Adam() : Adam(Options()) {}
  explicit Adam(Options options) : options_(options) {}
  explicit Adam(double learning_rate) {
    options_.learning_rate = learning_rate;
  }

  void Step(const std::vector<Parameter*>& params);
  int64_t step_count() const { return step_; }

  /// The effective learning rate. Mutable so training guardrails can back
  /// it off after a rollback without rebuilding optimizer state.
  double learning_rate() const { return options_.learning_rate; }
  void set_learning_rate(double lr) { options_.learning_rate = lr; }

  /// Checkpoint accessors: the first/second moment estimates, positionally
  /// matching the parameter list of every Step call. Empty until the first
  /// Step.
  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }

  /// Restores state captured via step_count()/first_moments()/
  /// second_moments(), after which Step continues bit-identically to the
  /// optimizer the state was captured from. `m` and `v` must be parallel
  /// vectors; their shapes are validated against the parameter list on the
  /// next Step.
  void SetState(int64_t step, std::vector<Matrix> m, std::vector<Matrix> v);

 private:
  Options options_;
  int64_t step_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace atena

#endif  // ATENA_NN_OPTIMIZER_H_
