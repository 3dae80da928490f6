#include "eda/environment.h"

#include <algorithm>

#include "common/logging.h"
#include "dataframe/stats.h"
#include "eda/binning.h"

namespace atena {

std::vector<int> ActionSpace::SegmentSizes() const {
  return {num_op_types, num_columns,   num_filter_ops, num_term_bins,
          num_columns,  num_agg_funcs, num_columns};
}

int ActionSpace::TotalParameterNodes() const {
  int total = 0;
  for (int s : SegmentSizes()) total += s;
  return total;
}

int64_t ActionSpace::FlatActionCount(int terms_per_column) const {
  const int64_t cols = num_columns;
  const int64_t terms = terms_per_column > 0 ? terms_per_column : num_term_bins;
  const int64_t filters = cols * num_filter_ops * terms;
  const int64_t groups = cols * num_agg_funcs * cols;
  return filters + groups + 1;  // + BACK
}

EdaEnvironment::EdaEnvironment(Dataset dataset, EnvConfig config)
    : dataset_(std::move(dataset)),
      config_(config),
      encoder_(dataset_.table, config.history_displays),
      rng_(config.seed) {
  action_space_.num_columns = dataset_.table->num_columns();
  action_space_.num_term_bins = config_.num_term_bins;
  if (config_.display_cache_enabled && config_.display_cache_capacity > 0) {
    DisplayCache::Options options;
    options.capacity = config_.display_cache_capacity;
    options.max_bytes = config_.display_cache_max_bytes;
    options.shards = config_.display_cache_shards;
    cache_ = std::make_shared<DisplayCache>(options);
  }
  // The constructor cannot propagate a Status; generator/CSV tables are far
  // below the int32 row-id bound, so an overflow here is a programmer error
  // and value() aborting is the right behavior.
  all_rows_ = AllRows(*dataset_.table).value();
  root_signature_ = RootRowsSignature(*dataset_.table);
  Reset();
}

const Display& EdaEnvironment::previous_display() const {
  if (history_.size() >= 2) return history_[history_.size() - 2];
  return history_.front();
}

std::vector<int32_t> EdaEnvironment::CapRows(
    const std::vector<int32_t>& rows) const {
  const int cap = config_.stats_row_cap;
  if (cap <= 0 || static_cast<int>(rows.size()) <= cap) return rows;
  // Deterministic stride sample preserving order.
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(cap));
  const double stride =
      static_cast<double>(rows.size()) / static_cast<double>(cap);
  for (int i = 0; i < cap; ++i) {
    out.push_back(rows[static_cast<size_t>(i * stride)]);
  }
  return out;
}

RowSet EdaEnvironment::CappedRows(const Display& display) const {
  const int cap = config_.stats_row_cap;
  if (cap <= 0 || static_cast<int>(display.rows.size()) <= cap) {
    return display.rows;  // shared storage, no copy
  }
  const uint64_t key = CappedRowsKey(display.rows_signature, cap);
  if (cache_) {
    if (auto hit = cache_->GetRows(key)) return RowSet(std::move(hit));
  }
  RowSet capped(CapRows(display.rows));
  if (cache_) cache_->PutRows(key, capped.storage());
  return capped;
}

std::vector<double> EdaEnvironment::Reset() {
  stack_.clear();
  history_.clear();
  display_vectors_.clear();
  steps_.clear();
  step_count_ = 0;

  Display root;
  root.rows = all_rows_;
  root.rows_signature = root_signature_;
  stack_.push_back(root);
  history_.push_back(root);

  display_vectors_.push_back(EncodeDisplayCached(root));
  return encoder_.EncodeObservation(display_vectors_);
}

EdaOperation EdaEnvironment::ResolveAction(const EnvAction& action) {
  switch (action.type) {
    case OpType::kBack:
      return EdaOperation::Back();
    case OpType::kGroup: {
      AggFunc agg = static_cast<AggFunc>(action.agg_func);
      int agg_column = action.agg_column;
      // Non-numeric aggregation target falls back to COUNT.
      if (agg != AggFunc::kCount) {
        DataType t = table().column(agg_column)->type();
        if (t == DataType::kString) {
          agg = AggFunc::kCount;
          agg_column = -1;
        }
      } else {
        agg_column = -1;
      }
      return EdaOperation::Group(action.group_column, agg, agg_column);
    }
    case OpType::kFilter: {
      int column = action.filter_column;
      CompareOp op = static_cast<CompareOp>(action.filter_op);
      const Column& col = *table().column(column);
      // Type-incompatible operators fall back to equality.
      const bool string_col = col.type() == DataType::kString;
      const bool ordering = op == CompareOp::kGt || op == CompareOp::kGe ||
                            op == CompareOp::kLt || op == CompareOp::kLe;
      const bool substring = op == CompareOp::kContains ||
                             op == CompareOp::kStartsWith ||
                             op == CompareOp::kEndsWith;
      if ((string_col && ordering) || (!string_col && substring)) {
        op = CompareOp::kEq;
      }
      // Sample a concrete token for the chosen frequency bin over the
      // current display's rows (paper §5). The token list is memoized per
      // (display row set, column); only the bin sampling consumes rng_, and
      // only the sampled token is boxed into a term.
      auto tokens = CurrentTokenFrequencies(column);
      TermBinning binning(*tokens, config_.num_term_bins);
      int token_index = binning.SampleToken(action.filter_bin, &rng_);
      Value term =
          token_index >= 0
              ? col.KeyValue((*tokens)[static_cast<size_t>(token_index)].key)
              : Value::Null();
      return EdaOperation::Filter(column, op, std::move(term),
                                  action.filter_bin);
    }
  }
  return EdaOperation::Back();
}

bool EdaEnvironment::ApplyOperation(const EdaOperation& op) {
  const Display& current = stack_.back();
  switch (op.type) {
    case OpType::kBack: {
      if (stack_.size() <= 1) return false;
      stack_.pop_back();
      return true;
    }
    case OpType::kGroup: {
      const GroupParams& p = op.group;
      if (p.group_column < 0 || p.group_column >= table().num_columns()) {
        return false;
      }
      if (std::find(current.group_columns.begin(),
                    current.group_columns.end(),
                    p.group_column) != current.group_columns.end()) {
        return false;  // already grouped by this attribute
      }
      if (static_cast<int>(current.group_columns.size()) >=
          config_.max_group_attrs) {
        return false;
      }
      Display next = current;
      next.group_columns.push_back(p.group_column);
      next.agg = p.agg;
      next.agg_column = p.agg_column;
      auto grouped = CachedGroupAggregate(next.rows_signature, next.rows,
                                          next.MakeGroupSpec());
      if (!grouped) return false;
      next.grouped = std::move(grouped);
      stack_.push_back(std::move(next));
      return true;
    }
    case OpType::kFilter: {
      const FilterParams& p = op.filter;
      if (p.column < 0 || p.column >= table().num_columns()) return false;
      if (p.term.is_null()) return false;  // column had no tokens
      FilterPred pred{p.column, p.op, p.term};
      const uint64_t child_signature =
          FilterChildSignature(current.rows_signature, pred);
      RowSet::Storage filtered_rows;
      if (cache_) filtered_rows = cache_->GetRows(child_signature);
      if (!filtered_rows) {
        auto filtered = FilterRows(table(), current.rows, p.column, p.op,
                                   p.term);
        if (!filtered.ok()) {
          ATENA_LOG(kDebug) << "filter failed: " << filtered.status();
          return false;
        }
        filtered_rows = std::make_shared<const std::vector<int32_t>>(
            std::move(filtered).value());
        if (cache_) cache_->PutRows(child_signature, filtered_rows);
      }
      if (filtered_rows->empty()) return false;  // empty result display
      // Re-applying a predicate that is already part of the display is a
      // no-op (a fresh predicate that happens to keep every row is fine —
      // experts use such filters to confirm a hypothesis).
      for (const FilterPred& existing : current.filters) {
        if (existing.column == p.column && existing.op == p.op &&
            existing.term == p.term) {
          return false;
        }
      }
      Display next = current;
      next.filters.push_back(std::move(pred));
      next.rows = RowSet(std::move(filtered_rows));
      next.rows_signature = child_signature;
      if (next.is_grouped()) {
        auto grouped = CachedGroupAggregate(next.rows_signature, next.rows,
                                            next.MakeGroupSpec());
        if (!grouped) return false;
        next.grouped = std::move(grouped);
      }
      stack_.push_back(std::move(next));
      return true;
    }
  }
  return false;
}

StepOutcome EdaEnvironment::FinishStep(EdaOperation op, bool valid,
                                       bool /*pushed*/) {
  ++step_count_;
  // One history entry per step; invalid steps repeat the current display.
  // Pushes share the display's row storage (RowSet) — no row copies.
  history_.push_back(stack_.back());
  display_vectors_.push_back(EncodeDisplayCached(stack_.back()));

  // The step is pushed before the reward is computed so that reward
  // functions and labeling rules see a consistent session log in which the
  // operation being scored is steps().back().
  EdaStep step;
  step.op = op;
  step.valid = valid;
  steps_.push_back(step);

  double reward = 0.0;
  if (!valid) {
    reward = config_.invalid_action_penalty;
  } else if (reward_ != nullptr) {
    RewardContext context;
    context.env = this;
    context.op = &steps_.back().op;
    context.valid = valid;
    reward = reward_->Compute(context);
  }
  steps_.back().reward = reward;

  StepOutcome outcome;
  outcome.observation = encoder_.EncodeObservation(display_vectors_);
  outcome.reward = reward;
  outcome.done = done();
  outcome.valid = valid;
  outcome.op = std::move(op);
  return outcome;
}

Status EdaEnvironment::ValidateAction(const EnvAction& action) const {
  auto out_of_range = [](const char* segment, int value, int bound) {
    return Status::OutOfRange(std::string(segment) + " index " +
                              std::to_string(value) + " outside [0, " +
                              std::to_string(bound) + ")");
  };
  const int type_index = static_cast<int>(action.type);
  if (type_index < 0 || type_index >= action_space_.num_op_types) {
    return out_of_range("op type", type_index, action_space_.num_op_types);
  }
  switch (action.type) {
    case OpType::kBack:
      return Status::OK();
    case OpType::kFilter:
      if (action.filter_column < 0 ||
          action.filter_column >= action_space_.num_columns) {
        return out_of_range("filter column", action.filter_column,
                            action_space_.num_columns);
      }
      if (action.filter_op < 0 ||
          action.filter_op >= action_space_.num_filter_ops) {
        return out_of_range("filter operator", action.filter_op,
                            action_space_.num_filter_ops);
      }
      if (action.filter_bin < 0 ||
          action.filter_bin >= action_space_.num_term_bins) {
        return out_of_range("filter bin", action.filter_bin,
                            action_space_.num_term_bins);
      }
      return Status::OK();
    case OpType::kGroup:
      if (action.group_column < 0 ||
          action.group_column >= action_space_.num_columns) {
        return out_of_range("group column", action.group_column,
                            action_space_.num_columns);
      }
      if (action.agg_func < 0 ||
          action.agg_func >= action_space_.num_agg_funcs) {
        return out_of_range("agg function", action.agg_func,
                            action_space_.num_agg_funcs);
      }
      if (action.agg_column < 0 ||
          action.agg_column >= action_space_.num_columns) {
        return out_of_range("agg column", action.agg_column,
                            action_space_.num_columns);
      }
      return Status::OK();
  }
  return out_of_range("op type", type_index, action_space_.num_op_types);
}

Status EdaEnvironment::CheckReadyToStep() const {
  if (done()) {
    return Status::FailedPrecondition(
        "step on a finished episode: " + std::to_string(step_count_) + "/" +
        std::to_string(config_.episode_length) +
        " steps taken, Reset required");
  }
  return Status::OK();
}

Result<StepOutcome> EdaEnvironment::TryStep(const EnvAction& action) {
  ATENA_RETURN_IF_ERROR(CheckReadyToStep());
  // Malformed actions (out-of-range segment indices) must not reach
  // ResolveAction: it would index columns out of bounds, and its filter
  // path consumes rng_ — an invalid action may do neither. They become
  // penalized no-ops, like BACK at the root.
  Status status = ValidateAction(action);
  if (!status.ok()) {
    ATENA_LOG(kDebug) << "invalid action rejected: " << status;
    return FinishStep(EdaOperation::Back(), /*valid=*/false, false);
  }
  EdaOperation op = ResolveAction(action);
  bool valid = ApplyOperation(op);
  return FinishStep(std::move(op), valid, valid);
}

StepOutcome EdaEnvironment::Step(const EnvAction& action) {
  Result<StepOutcome> outcome = TryStep(action);
  ATENA_CHECK(outcome.ok()) << outcome.status();
  return std::move(outcome).value();
}

Result<StepOutcome> EdaEnvironment::TryStepOperation(const EdaOperation& op) {
  ATENA_RETURN_IF_ERROR(CheckReadyToStep());
  bool valid = ApplyOperation(op);
  return FinishStep(op, valid, valid);
}

StepOutcome EdaEnvironment::StepOperation(const EdaOperation& op) {
  Result<StepOutcome> outcome = TryStepOperation(op);
  ATENA_CHECK(outcome.ok()) << outcome.status();
  return std::move(outcome).value();
}

std::vector<EdaOperation> EdaEnvironment::EnumerateOperations(
    int tokens_per_column) const {
  std::vector<EdaOperation> out;

  for (int c = 0; c < table().num_columns(); ++c) {
    const Column& col = *table().column(c);
    auto tokens = CurrentTokenFrequencies(c);
    const int limit = std::min<int>(tokens_per_column,
                                    static_cast<int>(tokens->size()));
    const bool string_col = col.type() == DataType::kString;
    for (int i = 0; i < limit; ++i) {
      const Value token = col.KeyValue((*tokens)[static_cast<size_t>(i)].key);
      out.push_back(EdaOperation::Filter(c, CompareOp::kEq, token));
      if (string_col) {
        out.push_back(EdaOperation::Filter(c, CompareOp::kNeq, token));
      } else {
        out.push_back(EdaOperation::Filter(c, CompareOp::kGt, token));
        out.push_back(EdaOperation::Filter(c, CompareOp::kLe, token));
      }
    }
  }
  for (int g = 0; g < table().num_columns(); ++g) {
    out.push_back(EdaOperation::Group(g, AggFunc::kCount, -1));
    for (int a = 0; a < table().num_columns(); ++a) {
      if (table().column(a)->type() == DataType::kString) continue;
      for (AggFunc f : {AggFunc::kSum, AggFunc::kMin, AggFunc::kMax,
                        AggFunc::kAvg}) {
        out.push_back(EdaOperation::Group(g, f, a));
      }
    }
  }
  out.push_back(EdaOperation::Back());
  return out;
}

std::shared_ptr<const std::vector<TokenFreq>>
EdaEnvironment::CurrentTokenFrequencies(int column) const {
  const Display& current = current_display();
  const uint64_t key =
      TokenKey(current.rows_signature, column, config_.stats_row_cap);
  if (cache_) {
    if (auto hit = cache_->GetTokens(key)) return hit;
  }
  auto tokens = std::make_shared<const std::vector<TokenFreq>>(
      TokenFrequencies(*table().column(column), CappedRows(current)));
  if (cache_) cache_->PutTokens(key, tokens);
  return tokens;
}

std::shared_ptr<const GroupedResult> EdaEnvironment::CachedGroupAggregate(
    uint64_t rows_signature, const RowSet& rows, const GroupSpec& spec) {
  const uint64_t key = GroupKey(rows_signature, spec);
  if (cache_) {
    if (auto hit = cache_->GetGrouped(key)) return hit;
  }
  auto grouped = GroupAggregate(table(), rows, spec);
  if (!grouped.ok()) {
    ATENA_LOG(kDebug) << "group failed: " << grouped.status();
    return nullptr;
  }
  auto result =
      std::make_shared<const GroupedResult>(std::move(grouped).value());
  if (cache_) cache_->PutGrouped(key, result);
  return result;
}

std::shared_ptr<const std::vector<ColumnStats>> EdaEnvironment::SelectionStats(
    const Display& display) const {
  const uint64_t key = StatsKey(display.rows_signature, config_.stats_row_cap);
  if (cache_) {
    if (auto hit = cache_->GetStats(key)) return hit;
  }
  auto stats = std::make_shared<const std::vector<ColumnStats>>(
      ComputeSelectionStats(table(), CappedRows(display)));
  if (cache_) cache_->PutStats(key, stats);
  return stats;
}

std::vector<double> EdaEnvironment::EncodeDisplayCached(
    const Display& display) {
  const uint64_t key = DisplayVectorKey(display, config_.stats_row_cap);
  if (cache_) {
    if (auto hit = cache_->GetVector(key)) return *hit;
  }
  std::vector<double> vec =
      encoder_.EncodeDisplay(display, *SelectionStats(display));
  if (cache_) {
    cache_->PutVector(key, std::make_shared<const std::vector<double>>(vec));
  }
  return vec;
}

EdaEnvironment::Snapshot EdaEnvironment::SaveSnapshot() const {
  return Snapshot{stack_, history_, display_vectors_, steps_, step_count_};
}

void EdaEnvironment::RestoreSnapshot(const Snapshot& snapshot) {
  stack_ = snapshot.stack;
  history_ = snapshot.history;
  display_vectors_ = snapshot.display_vectors;
  steps_ = snapshot.steps;
  step_count_ = snapshot.step_count;
}

EnvAction SampleRandomAction(const ActionSpace& space, Rng* rng) {
  EnvAction action;
  action.type = static_cast<OpType>(rng->NextBounded(space.num_op_types));
  action.filter_column = static_cast<int>(rng->NextBounded(space.num_columns));
  action.filter_op = static_cast<int>(rng->NextBounded(space.num_filter_ops));
  action.filter_bin = static_cast<int>(rng->NextBounded(space.num_term_bins));
  action.group_column = static_cast<int>(rng->NextBounded(space.num_columns));
  action.agg_func = static_cast<int>(rng->NextBounded(space.num_agg_funcs));
  action.agg_column = static_cast<int>(rng->NextBounded(space.num_columns));
  return action;
}

}  // namespace atena
