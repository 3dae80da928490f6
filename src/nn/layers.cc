#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace atena {

Workspace::Slot& Workspace::For(const Layer* layer) {
  for (auto& [owner, slot] : slots_) {
    if (owner == layer) return *slot;
  }
  slots_.emplace_back(layer, std::make_unique<Slot>());
  return *slots_.back().second;
}

Dense::Dense(int in_features, int out_features, ParameterStore* store,
             const std::string& name, Rng* rng) {
  weight_ = store->Create(name + ".weight", out_features, in_features);
  bias_ = store->Create(name + ".bias", 1, out_features);
  // He initialization: N(0, 2/in).
  const double stddev = std::sqrt(2.0 / std::max(1, in_features));
  for (double& w : weight_->value.data()) {
    w = rng->NextGaussian() * stddev;
  }
}

const Matrix& Dense::Forward(const Matrix& input, Workspace* ws) const {
  Workspace::Slot& slot = ws->For(this);
  slot.input = &input;
  if (serving_frozen_ && input.rows() >= 4) {
    // Frozen weights: route multi-row batches through the straight GEMM,
    // whose 4-row register tile (AVX2-dispatched) is ~2x the throughput of
    // the per-output dot products below. Each output element accumulates
    // over k in the same ascending order in both kernels (the tile's
    // zero-skip only elides exact-zero products), so the result bits are
    // identical — a frozen policy serves the same trace down either path.
    MatMulInto(input, weight_t_, &slot.output);
  } else {
    MatMulTransposeBInto(input, weight_->value, &slot.output);
  }
  AddRowVectorInPlace(&slot.output, bias_->value);
  return slot.output;
}

void Dense::PrepareForServing() {
  TransposeInto(weight_->value, &weight_t_);
  serving_frozen_ = true;
}

void Dense::BackwardParameters(const Matrix& grad_output,
                               Workspace* ws) const {
  Workspace::Slot& slot = ws->For(this);
  ATENA_CHECK(!serving_frozen_)
      << "Dense::Backward through a layer frozen by PrepareForServing — "
         "training would desync the cached transposed weights";
  ATENA_CHECK(slot.input != nullptr)
      << "Dense::Backward without a matching Forward in this workspace";
  // dL/dW = grad_outᵀ · input ; dL/db = column sums. Each is formed in full
  // in scratch and then added, so Parameter::grad sees one add per element.
  MatMulTransposeAInto(grad_output, *slot.input, &slot.param_grad);
  AxpyInPlace(&weight_->grad, slot.param_grad, 1.0);
  ColumnSumsInto(grad_output, &slot.param_grad);
  AxpyInPlace(&bias_->grad, slot.param_grad, 1.0);
}

const Matrix& Dense::Backward(const Matrix& grad_output, Workspace* ws) const {
  BackwardParameters(grad_output, ws);
  // dL/din = grad_out · W.
  Workspace::Slot& slot = ws->For(this);
  MatMulInto(grad_output, weight_->value, &slot.input_grad);
  return slot.input_grad;
}

const Matrix& Relu::Forward(const Matrix& input, Workspace* ws) const {
  Workspace::Slot& slot = ws->For(this);
  slot.input = &input;
  slot.output.Resize(input.rows(), input.cols());
  const auto& in = input.data();
  auto& out = slot.output.data();
  for (size_t i = 0; i < in.size(); ++i) out[i] = std::max(0.0, in[i]);
  return slot.output;
}

const Matrix& Relu::Backward(const Matrix& grad_output, Workspace* ws) const {
  Workspace::Slot& slot = ws->For(this);
  ATENA_CHECK(slot.input != nullptr)
      << "Relu::Backward without a matching Forward in this workspace";
  slot.input_grad.Resize(grad_output.rows(), grad_output.cols());
  const auto& in = slot.input->data();
  const auto& g = grad_output.data();
  auto& grad = slot.input_grad.data();
  for (size_t i = 0; i < grad.size(); ++i) grad[i] = in[i] <= 0.0 ? 0.0 : g[i];
  return slot.input_grad;
}

const Matrix& Sequential::Forward(const Matrix& input, Workspace* ws) const {
  const Matrix* x = &input;
  for (const auto& layer : layers_) x = &layer->Forward(*x, ws);
  return *x;
}

const Matrix& Sequential::Backward(const Matrix& grad_output,
                                   Workspace* ws) const {
  const Matrix* g = &grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = &(*it)->Backward(*g, ws);
  }
  return *g;
}

void Sequential::BackwardParameters(const Matrix& grad_output,
                                    Workspace* ws) const {
  if (layers_.empty()) return;
  const Matrix* g = &grad_output;
  for (size_t i = layers_.size() - 1; i > 0; --i) {
    g = &layers_[i]->Backward(*g, ws);
  }
  layers_.front()->BackwardParameters(*g, ws);
}

void Sequential::PrepareForServing() {
  for (const auto& layer : layers_) layer->PrepareForServing();
}

std::vector<Parameter*> Sequential::Parameters() const {
  std::vector<Parameter*> params;
  for (const auto& layer : layers_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::unique_ptr<Sequential> MakeMlp(int in_features,
                                    const std::vector<int>& hidden,
                                    int out_features, ParameterStore* store,
                                    const std::string& name, Rng* rng) {
  auto net = std::make_unique<Sequential>();
  int prev = in_features;
  int index = 0;
  for (int h : hidden) {
    net->Add(std::make_unique<Dense>(
        prev, h, store, name + "." + std::to_string(index++), rng));
    net->Add(std::make_unique<Relu>());
    prev = h;
  }
  net->Add(std::make_unique<Dense>(
      prev, out_features, store, name + "." + std::to_string(index), rng));
  return net;
}

ActorCriticNet::ActorCriticNet(int in_features, const std::vector<int>& hidden,
                               int policy_width, uint64_t seed) {
  Rng rng(seed);
  int prev = in_features;
  for (size_t i = 0; i < hidden.size(); ++i) {
    trunk_.Add(std::make_unique<Dense>(prev, hidden[i], &store_,
                                       "trunk." + std::to_string(i), &rng));
    trunk_.Add(std::make_unique<Relu>());
    prev = hidden[i];
  }
  policy_head_ =
      std::make_unique<Dense>(prev, policy_width, &store_, "policy_head", &rng);
  value_head_ = std::make_unique<Dense>(prev, 1, &store_, "value_head", &rng);
}

ActorCriticNet::Outputs ActorCriticNet::Forward(const Matrix& observations,
                                                Workspace* ws) const {
  const Matrix& h = trunk_.Forward(observations, ws);
  forward_passes_.fetch_add(1, std::memory_order_relaxed);
  return {policy_head_->Forward(h, ws), value_head_->Forward(h, ws)};
}

void ActorCriticNet::Backward(const Matrix& dlogits, const Matrix& dvalues) {
  grad_h_ = policy_head_->Backward(dlogits, &ws_);
  AxpyInPlace(&grad_h_, value_head_->Backward(dvalues, &ws_), 1.0);
  // Nothing uses the observation's gradient; BackwardParameters skips it.
  trunk_.BackwardParameters(grad_h_, &ws_);
}

void ActorCriticNet::PrepareForServing() {
  trunk_.PrepareForServing();
  policy_head_->PrepareForServing();
  value_head_->PrepareForServing();
}

void SoftmaxRangeInPlace(Matrix* m, int begin, int end) {
  for (int r = 0; r < m->rows(); ++r) {
    double* row = m->RowPtr(r);
    double max_logit = row[begin];
    for (int j = begin; j < end; ++j) max_logit = std::max(max_logit, row[j]);
    double total = 0.0;
    for (int j = begin; j < end; ++j) {
      row[j] = std::exp(row[j] - max_logit);
      total += row[j];
    }
    if (total > 0.0) {
      for (int j = begin; j < end; ++j) row[j] /= total;
    }
  }
}

}  // namespace atena
