#include "core/twofold_policy.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace atena {

namespace {

double SafeLog(double p) { return std::log(std::max(p, 1e-12)); }

int SampleFromProbs(const double* probs, int count, Rng* rng) {
  double target = rng->NextDouble();
  double acc = 0.0;
  for (int i = 0; i < count; ++i) {
    acc += probs[i];
    if (target < acc) return i;
  }
  return count - 1;
}

int ArgmaxProbs(const double* probs, int count) {
  int best = 0;
  for (int i = 1; i < count; ++i) {
    if (probs[i] > probs[best]) best = i;
  }
  return best;
}

}  // namespace

TwofoldPolicy::TwofoldPolicy(int observation_dim, const ActionSpace& space,
                             Options options)
    : segment_sizes_(space.SegmentSizes()),
      total_nodes_(space.TotalParameterNodes()),
      net_(observation_dim, options.hidden, total_nodes_, options.seed) {
  ATENA_CHECK(static_cast<int>(segment_sizes_.size()) == kNumSegments)
      << "unexpected segment layout";
  int offset = 0;
  for (int size : segment_sizes_) {
    segment_offsets_.push_back(offset);
    offset += size;
  }
}

std::span<const int> TwofoldPolicy::OpSegments(int op) {
  static constexpr int kFilterSegments[] = {1, 2, 3};  // attr, op, term-bin
  static constexpr int kGroupSegments[] = {4, 5, 6};   // g_attr, agg, agg_attr
  switch (op) {
    case 0:  // FILTER
      return kFilterSegments;
    case 1:  // GROUP
      return kGroupSegments;
    default:  // BACK()
      return {};
  }
}

double TwofoldPolicy::ParamEntropy(const double* entropies, int op) {
  double sum = 0.0;
  for (int s : OpSegments(op)) sum += entropies[s];
  return sum;
}

int TwofoldPolicy::ChosenIndex(const EnvAction& action, int segment) {
  switch (segment) {
    case 0:
      return static_cast<int>(action.type);
    case 1:
      return action.filter_column;
    case 2:
      return action.filter_op;
    case 3:
      return action.filter_bin;
    case 4:
      return action.group_column;
    case 5:
      return action.agg_func;
    case 6:
      return action.agg_column;
  }
  return 0;
}

void TwofoldPolicy::SoftmaxSegment(const double* logits, int segment,
                                   double* probs) const {
  const int begin = segment_offsets_[segment];
  const int end = begin + segment_sizes_[segment];
  double max_logit = logits[begin];
  for (int j = begin; j < end; ++j) max_logit = std::max(max_logit, logits[j]);
  double total = 0.0;
  for (int j = begin; j < end; ++j) {
    probs[j] = std::exp(logits[j] - max_logit);
    total += probs[j];
  }
  for (int j = begin; j < end; ++j) probs[j] /= total;
}

void TwofoldPolicy::ComputeHead(const double* logits, HeadRow head) const {
  for (int s = 0; s < kNumSegments; ++s) {
    SoftmaxSegment(logits, s, head.probs);
    const int begin = segment_offsets_[s];
    double h = 0.0;
    for (int j = begin; j < begin + segment_sizes_[s]; ++j) {
      head.logs[j] = SafeLog(head.probs[j]);
      if (head.probs[j] > 0.0) h -= head.probs[j] * head.logs[j];
    }
    head.entropies[s] = h;
  }
}

double TwofoldPolicy::JointEntropy(const HeadRow& head) const {
  double h = head.entropies[0];
  for (int op = 0; op < segment_sizes_[0]; ++op) {
    const double p_op = head.probs[segment_offsets_[0] + op];
    h += p_op * ParamEntropy(head.entropies, op);
  }
  return h;
}

double TwofoldPolicy::ActionLogProb(const HeadRow& head,
                                    const EnvAction& action) const {
  const int op = static_cast<int>(action.type);
  double logp = head.logs[segment_offsets_[0] + op];
  for (int s : OpSegments(op)) {
    logp += head.logs[segment_offsets_[s] + ChosenIndex(action, s)];
  }
  return logp;
}

PolicyStep TwofoldPolicy::StepFromRow(const double* logits, double value,
                                      Rng* rng, double* probs) const {
  // Only the op segment and the chosen op's segments are filled and read.
  auto pick = [&](int segment) {
    SoftmaxSegment(logits, segment, probs);
    const double* p = probs + segment_offsets_[segment];
    const int n = segment_sizes_[segment];
    return rng == nullptr ? ArgmaxProbs(p, n) : SampleFromProbs(p, n, rng);
  };

  // The operation type is sampled first, then only its parameter segments
  // (the Multi-Softmax layer activates just those, paper §5); the other
  // fields stay 0 and are ignored downstream. The log-probability sums the
  // chosen entries' logs in ActionLogProb's order.
  EnvAction action;
  const int op = pick(0);
  action.type = static_cast<OpType>(op);
  double log_prob = SafeLog(probs[segment_offsets_[0] + op]);
  for (int s : OpSegments(op)) {
    const int k = pick(s);
    log_prob += SafeLog(probs[segment_offsets_[s] + k]);
    switch (s) {
      case 1:
        action.filter_column = k;
        break;
      case 2:
        action.filter_op = k;
        break;
      case 3:
        action.filter_bin = k;
        break;
      case 4:
        action.group_column = k;
        break;
      case 5:
        action.agg_func = k;
        break;
      case 6:
        action.agg_column = k;
        break;
      default:
        break;
    }
  }

  PolicyStep step;
  step.action.structured = action;
  step.log_prob = log_prob;
  step.value = value;
  return step;
}

std::vector<PolicyStep> TwofoldPolicy::ActBatch(const Matrix& observations,
                                                const std::vector<Rng*>& rngs) {
  return ActBatch(observations, rngs, &act_ws_);
}

std::vector<PolicyStep> TwofoldPolicy::ActBatch(const Matrix& observations,
                                                const std::vector<Rng*>& rngs,
                                                Workspace* ws) const {
  ATENA_CHECK(static_cast<int>(rngs.size()) == observations.rows())
      << "ActBatch needs one Rng slot per observation row ("
      << rngs.size() << " vs " << observations.rows() << ")";
  const ActorCriticNet::Outputs out = net_.Forward(observations, ws);
  std::vector<double> probs(static_cast<size_t>(total_nodes_));
  std::vector<PolicyStep> steps;
  steps.reserve(rngs.size());
  for (int r = 0; r < observations.rows(); ++r) {
    steps.push_back(StepFromRow(out.logits.RowPtr(r), out.values(r, 0),
                                rngs[static_cast<size_t>(r)], probs.data()));
  }
  return steps;
}

BatchEvaluation TwofoldPolicy::ForwardBatch(
    const Matrix& observations, const std::vector<ActionRecord>& actions) {
  const int batch = observations.rows();
  const ActorCriticNet::Outputs out = net_.Forward(observations);

  batch_probs_.Resize(batch, total_nodes_);
  batch_logs_.Resize(batch, total_nodes_);
  batch_entropies_.Resize(batch, kNumSegments);
  batch_actions_.clear();
  batch_actions_.reserve(static_cast<size_t>(batch));
  batch_size_ = batch;

  BatchEvaluation eval;
  eval.log_probs.resize(static_cast<size_t>(batch));
  eval.entropies.resize(static_cast<size_t>(batch));
  eval.values.resize(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    const HeadRow head{batch_probs_.RowPtr(b), batch_logs_.RowPtr(b),
                       batch_entropies_.RowPtr(b)};
    ComputeHead(out.logits.RowPtr(b), head);
    const EnvAction& action = actions[static_cast<size_t>(b)].structured;
    eval.log_probs[static_cast<size_t>(b)] = ActionLogProb(head, action);
    eval.entropies[static_cast<size_t>(b)] = JointEntropy(head);
    eval.values[static_cast<size_t>(b)] = out.values(b, 0);
    batch_actions_.push_back(action);
  }
  return eval;
}

void TwofoldPolicy::BackwardBatch(const std::vector<SampleGrad>& grads) {
  ATENA_CHECK(static_cast<int>(grads.size()) == batch_size_)
      << "BackwardBatch called with mismatched batch";

  dlogits_.Resize(batch_size_, total_nodes_);
  dlogits_.Fill(0.0);
  dvalues_.Resize(batch_size_, 1);

  for (int b = 0; b < batch_size_; ++b) {
    const SampleGrad& g = grads[static_cast<size_t>(b)];
    const double* probs = batch_probs_.RowPtr(b);
    const double* logs = batch_logs_.RowPtr(b);
    const double* entropies = batch_entropies_.RowPtr(b);
    const EnvAction& action = batch_actions_[static_cast<size_t>(b)];
    double* drow = dlogits_.RowPtr(b);
    dvalues_(b, 0) = g.d_value;

    const int op = static_cast<int>(action.type);
    const int op_offset = segment_offsets_[0];

    // --- log-prob gradient: (one-hot − p) on the op segment and on the
    // chosen op's parameter segments.
    for (int j = 0; j < segment_sizes_[0]; ++j) {
      const double indicator = (j == op) ? 1.0 : 0.0;
      drow[op_offset + j] += g.d_log_prob * (indicator - probs[op_offset + j]);
    }
    for (int s : OpSegments(op)) {
      const int offset = segment_offsets_[s];
      const int chosen = ChosenIndex(action, s);
      for (int j = 0; j < segment_sizes_[s]; ++j) {
        const double indicator = (j == chosen) ? 1.0 : 0.0;
        drow[offset + j] += g.d_log_prob * (indicator - probs[offset + j]);
      }
    }

    // --- entropy gradient of the exact joint entropy.
    if (g.d_entropy != 0.0) {
      const double h_op = entropies[0];
      double mean_param_entropy = 0.0;
      for (int o = 0; o < segment_sizes_[0]; ++o) {
        mean_param_entropy +=
            probs[op_offset + o] * ParamEntropy(entropies, o);
      }
      // Op segment: dH/dz_j = −p_j(log p_j + H_op) + p_j(S_j − Σ_o p_o S_o).
      for (int j = 0; j < segment_sizes_[0]; ++j) {
        const double p = probs[op_offset + j];
        const double d =
            -p * (logs[op_offset + j] + h_op) +
            p * (ParamEntropy(entropies, j) - mean_param_entropy);
        drow[op_offset + j] += g.d_entropy * d;
      }
      // Parameter segments: dH/dz = p(o) · (−p_j(log p_j + H_segment)).
      for (int o = 0; o < segment_sizes_[0]; ++o) {
        const double p_op = probs[op_offset + o];
        for (int s : OpSegments(o)) {
          const int offset = segment_offsets_[s];
          const double h_s = entropies[s];
          for (int j = 0; j < segment_sizes_[s]; ++j) {
            const double p = probs[offset + j];
            drow[offset + j] +=
                g.d_entropy * p_op * (-p * (logs[offset + j] + h_s));
          }
        }
      }
    }
  }

  net_.Backward(dlogits_, dvalues_);
}

}  // namespace atena
