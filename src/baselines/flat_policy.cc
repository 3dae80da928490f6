#include "baselines/flat_policy.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "dataframe/stats.h"

namespace atena {

namespace {

double SafeLog(double p) { return std::log(std::max(p, 1e-12)); }

/// The flat action table: every FILTER (column × operator × token or
/// frequency bin), every GROUP (key × aggregation × target) and BACK.
std::vector<ActionRecord> BuildActionTable(const EdaEnvironment& env,
                                           const FlatPolicy::Options& options) {
  std::vector<ActionRecord> actions;
  const Table& table = env.table();
  const ActionSpace& space = env.action_space();
  auto all_rows = AllRows(table).value();

  // FILTER actions.
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = *table.column(c);
    const bool string_col = col.type() == DataType::kString;
    for (int op_index = 0; op_index < space.num_filter_ops; ++op_index) {
      CompareOp op = static_cast<CompareOp>(op_index);
      // Coerce type-incompatible operators to equality, mirroring the
      // environment's own fallback so flat and twofold agents face the same
      // semantics (only the output-layer architecture differs).
      const bool ordering = op == CompareOp::kGt || op == CompareOp::kGe ||
                            op == CompareOp::kLt || op == CompareOp::kLe;
      const bool substring = op == CompareOp::kContains ||
                             op == CompareOp::kStartsWith ||
                             op == CompareOp::kEndsWith;
      if ((string_col && ordering) || (!string_col && substring)) {
        op = CompareOp::kEq;
      }
      if (options.term_mode == FlatPolicy::TermMode::kExplicitTokens) {
        auto tokens = TokenFrequencies(col, all_rows);
        const int limit = std::min<int>(options.tokens_per_column,
                                        static_cast<int>(tokens.size()));
        for (int t = 0; t < limit; ++t) {
          ActionRecord record;
          record.is_concrete = true;
          record.concrete =
              EdaOperation::Filter(c, op, col.KeyValue(tokens[t].key));
          actions.push_back(std::move(record));
        }
      } else {
        for (int bin = 0; bin < space.num_term_bins; ++bin) {
          ActionRecord record;
          record.structured.type = OpType::kFilter;
          record.structured.filter_column = c;
          record.structured.filter_op = static_cast<int>(op);
          record.structured.filter_bin = bin;
          actions.push_back(std::move(record));
        }
      }
    }
  }
  // GROUP actions.
  for (int g = 0; g < table.num_columns(); ++g) {
    for (int f = 0; f < space.num_agg_funcs; ++f) {
      for (int a = 0; a < table.num_columns(); ++a) {
        ActionRecord record;
        record.structured.type = OpType::kGroup;
        record.structured.group_column = g;
        record.structured.agg_func = f;
        record.structured.agg_column = a;
        actions.push_back(std::move(record));
      }
    }
  }
  // BACK.
  {
    ActionRecord record;
    record.structured.type = OpType::kBack;
    actions.push_back(std::move(record));
  }
  for (size_t i = 0; i < actions.size(); ++i) {
    actions[i].flat_index = static_cast<int>(i);
  }
  ATENA_LOG(kInfo) << "flat policy: " << actions.size()
                   << " output nodes (" << env.dataset().info.id << ")";
  return actions;
}

}  // namespace

FlatPolicy::FlatPolicy(const EdaEnvironment& env, Options options)
    : actions_(BuildActionTable(env, options)),
      net_(env.observation_dim(), options.hidden, num_actions(),
           options.seed) {}

const Matrix& FlatPolicy::ForwardGraph(const Matrix& observations,
                                       Matrix* probs) {
  const ActorCriticNet::Outputs out = net_.Forward(observations);
  *probs = out.logits;
  SoftmaxRangeInPlace(probs, 0, num_actions());
  return out.values;
}

PolicyStep FlatPolicy::StepFromRow(const double* probs, double value,
                                   Rng* rng) const {
  const int n = static_cast<int>(actions_.size());
  int index = 0;
  if (rng == nullptr) {
    for (int i = 1; i < n; ++i) {
      if (probs[i] > probs[index]) index = i;
    }
  } else {
    double target = rng->NextDouble();
    double acc = 0.0;
    index = n - 1;
    for (int i = 0; i < n; ++i) {
      acc += probs[i];
      if (target < acc) {
        index = i;
        break;
      }
    }
  }

  PolicyStep step;
  step.action = actions_[static_cast<size_t>(index)];
  step.log_prob = SafeLog(probs[index]);
  step.value = value;
  return step;
}

std::vector<PolicyStep> FlatPolicy::ActBatch(const Matrix& observations,
                                             const std::vector<Rng*>& rngs) {
  ATENA_CHECK(static_cast<int>(rngs.size()) == observations.rows())
      << "ActBatch needs one Rng slot per observation row ("
      << rngs.size() << " vs " << observations.rows() << ")";
  const Matrix& values = ForwardGraph(observations, &probs_buf_);
  std::vector<PolicyStep> steps;
  steps.reserve(rngs.size());
  for (int r = 0; r < observations.rows(); ++r) {
    steps.push_back(StepFromRow(probs_buf_.RowPtr(r), values(r, 0),
                                rngs[static_cast<size_t>(r)]));
  }
  return steps;
}

BatchEvaluation FlatPolicy::ForwardBatch(
    const Matrix& observations, const std::vector<ActionRecord>& actions) {
  const int batch = observations.rows();
  const int n = num_actions();
  const Matrix& values = ForwardGraph(observations, &batch_probs_);

  batch_logs_.Resize(batch, n);
  batch_entropies_.resize(static_cast<size_t>(batch));
  batch_indices_.resize(static_cast<size_t>(batch));
  batch_size_ = batch;

  BatchEvaluation eval;
  eval.log_probs.resize(static_cast<size_t>(batch));
  eval.entropies.resize(static_cast<size_t>(batch));
  eval.values.resize(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    const double* probs = batch_probs_.RowPtr(b);
    double* logs = batch_logs_.RowPtr(b);
    const int index = actions[static_cast<size_t>(b)].flat_index;
    ATENA_CHECK(index >= 0 && index < n)
        << "flat policy evaluated with a foreign action";
    double entropy = 0.0;
    for (int i = 0; i < n; ++i) {
      logs[i] = SafeLog(probs[i]);
      if (probs[i] > 0.0) entropy -= probs[i] * logs[i];
    }
    eval.log_probs[static_cast<size_t>(b)] = logs[index];
    eval.entropies[static_cast<size_t>(b)] = entropy;
    eval.values[static_cast<size_t>(b)] = values(b, 0);
    batch_entropies_[static_cast<size_t>(b)] = entropy;
    batch_indices_[static_cast<size_t>(b)] = index;
  }
  return eval;
}

void FlatPolicy::BackwardBatch(const std::vector<SampleGrad>& grads) {
  ATENA_CHECK(static_cast<int>(grads.size()) == batch_size_)
      << "BackwardBatch called with mismatched batch";
  const int n = num_actions();
  // Every element of both is assigned below.
  dlogits_.Resize(batch_size_, n);
  dvalues_.Resize(batch_size_, 1);
  for (int b = 0; b < batch_size_; ++b) {
    const SampleGrad& g = grads[static_cast<size_t>(b)];
    const double* probs = batch_probs_.RowPtr(b);
    const double* logs = batch_logs_.RowPtr(b);
    const double entropy = batch_entropies_[static_cast<size_t>(b)];
    const int chosen = batch_indices_[static_cast<size_t>(b)];
    double* drow = dlogits_.RowPtr(b);
    dvalues_(b, 0) = g.d_value;
    for (int j = 0; j < n; ++j) {
      const double p = probs[j];
      const double indicator = (j == chosen) ? 1.0 : 0.0;
      drow[j] = g.d_log_prob * (indicator - p);
      if (g.d_entropy != 0.0) {
        drow[j] += g.d_entropy * (-p * (logs[j] + entropy));
      }
    }
  }
  net_.Backward(dlogits_, dvalues_);
}

}  // namespace atena
