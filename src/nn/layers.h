#ifndef ATENA_NN_LAYERS_H_
#define ATENA_NN_LAYERS_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "nn/matrix.h"
#include "nn/parameter.h"

namespace atena {

class Layer;

/// Per-pass activation storage — the read/write side of the substrate's
/// parameter/activation split. A layer graph holds only parameters (owned
/// by a ParameterStore); everything a forward pass produces, and everything
/// the matching backward pass needs to consume, lives in a Workspace the
/// caller supplies.
///
/// Thread-safety contract: Forward never touches layer state, so any number
/// of forward passes may run concurrently over one shared graph as long as
/// each uses its own Workspace. Backward accumulates into the shared
/// parameter gradients and must be externally serialized. Reusing one
/// workspace across sequential passes recycles its buffers, so steady-state
/// forward and backward passes perform no allocation.
class Workspace {
 public:
  /// Activation state one layer keeps in this workspace.
  struct Slot {
    /// Borrowed pointer to the input of the layer's last Forward through
    /// this workspace. Consumed by the matching Backward; the caller must
    /// keep the input matrix alive and unmodified until then.
    const Matrix* input = nullptr;
    /// The layer's output, owned by the workspace and reused across passes.
    /// Matrices returned by Forward alias this storage — treat them as
    /// read-only and consume them before the next pass overwrites them.
    Matrix output;
    /// The gradient w.r.t. the layer input; what Backward returns, with the
    /// same aliasing rules as `output`.
    Matrix input_grad;
    /// Backward scratch for a layer's parameter-gradient products, which
    /// are formed in full before being added to Parameter::grad.
    Matrix param_grad;
  };

  /// The slot of `layer`, created on first use. References stay stable.
  Slot& For(const Layer* layer);

 private:
  // Networks are tiny (≤ ~10 layers); a linear scan beats hashing. Slots
  // are heap-boxed so references survive vector growth.
  std::vector<std::pair<const Layer*, std::unique_ptr<Slot>>> slots_;
};

/// A differentiable layer with manual backprop over a stateless graph:
/// layers own no activations, only `Parameter*` views into a shared
/// ParameterStore. All per-pass state goes through the Workspace argument
/// (see Workspace for the thread-safety contract).
class Layer {
 public:
  virtual ~Layer() = default;

  /// input: (batch × in_features) -> (batch × out_features). The result is
  /// stored in `ws` and stays valid until this layer's next Forward through
  /// the same workspace.
  virtual const Matrix& Forward(const Matrix& input, Workspace* ws) const = 0;

  /// grad_output: (batch × out_features). Consumes the activations recorded
  /// in `ws` by the matching Forward, accumulates parameter gradients, and
  /// returns the gradient w.r.t. the layer input. The result is stored in
  /// `ws` and stays valid until this layer's next Backward through the same
  /// workspace.
  virtual const Matrix& Backward(const Matrix& grad_output,
                                 Workspace* ws) const = 0;

  /// Backward for a caller that discards the input gradient (the first
  /// layer of a network, whose input is the observation): accumulates
  /// exactly the parameter gradients Backward would, and skips computing
  /// the gradient w.r.t. the input where the layer can.
  virtual void BackwardParameters(const Matrix& grad_output,
                                  Workspace* ws) const {
    Backward(grad_output, ws);
  }

  /// Learnable parameters (may be empty).
  virtual std::vector<Parameter*> Parameters() const { return {}; }

  /// Declares the layer's parameters frozen and lets it precompute
  /// inference-only caches (Dense caches Wᵀ so batched forwards can use the
  /// register-tiled straight-GEMM kernel). The caller promises parameters
  /// will not change afterwards; Backward through a frozen layer is a fatal
  /// error. Safe to call again after a deliberate parameter mutation (e.g.
  /// a checkpoint load) to rebuild the caches.
  virtual void PrepareForServing() {}
};

/// Fully-connected layer out = in·Wᵀ + b. Weights use He initialization
/// (suited to the ReLU trunks of the paper's architecture). The weight and
/// bias are created in `store` as "<name>.weight" / "<name>.bias".
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, ParameterStore* store,
        const std::string& name, Rng* rng);

  const Matrix& Forward(const Matrix& input, Workspace* ws) const override;
  const Matrix& Backward(const Matrix& grad_output,
                         Workspace* ws) const override;
  /// Skips grad_output · W, the input gradient.
  void BackwardParameters(const Matrix& grad_output,
                          Workspace* ws) const override;
  std::vector<Parameter*> Parameters() const override {
    return {weight_, bias_};
  }
  void PrepareForServing() override;

  int in_features() const { return weight_->value.cols(); }
  int out_features() const { return weight_->value.rows(); }

 private:
  Parameter* weight_;  // (out × in)
  Parameter* bias_;    // (1 × out)
  // Wᵀ (in × out), cached by PrepareForServing so multi-row forwards can
  // run the tiled MatMulInto kernel instead of per-output dot products.
  // Bit-identical results either way: both kernels accumulate each output
  // element over k in ascending order. Empty until frozen.
  Matrix weight_t_;
  bool serving_frozen_ = false;
};

/// Rectified linear unit.
class Relu final : public Layer {
 public:
  const Matrix& Forward(const Matrix& input, Workspace* ws) const override;
  const Matrix& Backward(const Matrix& grad_output,
                         Workspace* ws) const override;
};

/// A plain sequential network.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  void Add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  const Matrix& Forward(const Matrix& input, Workspace* ws) const override;
  const Matrix& Backward(const Matrix& grad_output,
                         Workspace* ws) const override;
  /// Backward through every layer, ending in the first layer's
  /// BackwardParameters.
  void BackwardParameters(const Matrix& grad_output,
                          Workspace* ws) const override;
  std::vector<Parameter*> Parameters() const override;
  void PrepareForServing() override;

  size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Builds a ReLU MLP: in -> hidden[0] -> ... -> hidden.back() -> out with
/// ReLU between all Dense layers (none after the final one). Dense layers
/// register their parameters in `store` as "<name>.0", "<name>.1", ...
std::unique_ptr<Sequential> MakeMlp(int in_features,
                                    const std::vector<int>& hidden,
                                    int out_features, ParameterStore* store,
                                    const std::string& name, Rng* rng);

/// The actor-critic network both EDA policies are built on: ATENA's twofold
/// network and the off-the-shelf baselines differ only in how they read the
/// policy head (paper §5). A ReLU trunk of `hidden` widths feeds a linear
/// policy head `policy_width` wide and a one-wide value head. Parameters
/// are created in one ParameterStore in the order trunk.0, trunk.1, ...,
/// policy_head, value_head, He-initialized from one Rng seeded with `seed`;
/// weight files and checkpoints depend on both. Training passes run
/// through an internal Workspace, so Backward pairs with the last
/// Forward(observations); acting may instead run const passes on
/// caller-owned workspaces, concurrently (see Workspace).
class ActorCriticNet {
 public:
  ActorCriticNet(int in_features, const std::vector<int>& hidden,
                 int policy_width, uint64_t seed);

  /// Both alias the workspace and stay valid until the next Forward
  /// through it.
  struct Outputs {
    const Matrix& logits;  // rows × policy_width
    const Matrix& values;  // rows × 1
  };
  /// A forward pass on the caller-owned `ws`. Any number may run at once
  /// on one network, each through its own workspace.
  Outputs Forward(const Matrix& observations, Workspace* ws) const;
  /// A forward pass through the internal workspace. `observations` must
  /// stay alive and unmodified until a Backward that consumes this pass.
  Outputs Forward(const Matrix& observations) {
    return Forward(observations, &ws_);
  }

  /// Backpropagates the gradients w.r.t. the last Forward's logits and
  /// values, accumulating parameter gradients.
  void Backward(const Matrix& dlogits, const Matrix& dvalues);

  /// Freezes every layer (Layer::PrepareForServing).
  void PrepareForServing();

  const ParameterStore& store() const { return store_; }
  std::vector<Parameter*> Parameters() const { return store_.All(); }

  /// Forward passes so far, on any workspace, a batched pass counting once.
  int64_t forward_passes() const {
    return forward_passes_.load(std::memory_order_relaxed);
  }

 private:
  ParameterStore store_;
  Sequential trunk_;
  std::unique_ptr<Dense> policy_head_;
  std::unique_ptr<Dense> value_head_;
  Workspace ws_;
  Matrix grad_h_;  // Backward's trunk-output gradient, reused.
  mutable std::atomic<int64_t> forward_passes_{0};
};

/// In-place row-wise numerically-stable softmax over columns [begin, end).
void SoftmaxRangeInPlace(Matrix* m, int begin, int end);

}  // namespace atena

#endif  // ATENA_NN_LAYERS_H_
