#include "coherency/rules.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "dataframe/stats.h"

namespace atena {

namespace {

/// The table's distinct-value ratios (Table::distinct_ratios), used to
/// decide whether a column is "continuous" (many distinct numeric values)
/// or "id-like" (nearly unique). The rules hold them through a pointer
/// that shares ownership of the table, so the table outlives every rule.
using SharedRatios = std::shared_ptr<const std::vector<double>>;

bool OpEquals(const EdaOperation& a, const EdaOperation& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case OpType::kBack:
      return true;
    case OpType::kFilter:
      return a.filter.column == b.filter.column && a.filter.op == b.filter.op &&
             a.filter.term == b.filter.term;
    case OpType::kGroup:
      return a.group.group_column == b.group.group_column &&
             a.group.agg == b.group.agg &&
             a.group.agg_column == b.group.agg_column;
  }
  return false;
}

}  // namespace

std::vector<LabelingFunctionPtr> GeneralCoherencyRules(TablePtr table) {
  const SharedRatios ratios(table, &table->distinct_ratios());
  std::vector<LabelingFunctionPtr> rules;
  auto types = std::make_shared<std::vector<DataType>>();
  for (int c = 0; c < table->num_columns(); ++c) {
    types->push_back(table->column(c)->type());
  }

  rules.push_back(MakeLf("group_too_deep", [](const RewardContext& ctx) {
    if (ctx.op->type != OpType::kGroup) return LfVote::kAbstain;
    const auto& display = ctx.env->current_display();
    if (static_cast<int>(display.group_columns.size()) > 4) {
      return LfVote::kIncoherent;
    }
    if (display.group_columns.size() <= 2) return LfVote::kCoherent;
    return LfVote::kAbstain;
  }));

  rules.push_back(
      MakeLf("group_on_continuous", [ratios, types](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kGroup) return LfVote::kAbstain;
        int c = ctx.op->group.group_column;
        if (c < 0 || c >= static_cast<int>(types->size())) {
          return LfVote::kAbstain;
        }
        bool numeric = (*types)[static_cast<size_t>(c)] != DataType::kString;
        if (numeric && (*ratios)[static_cast<size_t>(c)] > 0.2) {
          return LfVote::kIncoherent;
        }
        return LfVote::kAbstain;
      }));

  rules.push_back(
      MakeLf("group_on_id_like", [ratios](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kGroup) return LfVote::kAbstain;
        int c = ctx.op->group.group_column;
        if (c < 0 || c >= static_cast<int>(ratios->size())) {
          return LfVote::kAbstain;
        }
        // Nearly one distinct value per row: grouping yields singletons.
        if ((*ratios)[static_cast<size_t>(c)] > 0.9) return LfVote::kIncoherent;
        return LfVote::kAbstain;
      }));

  rules.push_back(
      MakeLf("filter_on_id_like", [ratios](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kFilter) return LfVote::kAbstain;
        int c = ctx.op->filter.column;
        if (c < 0 || c >= static_cast<int>(ratios->size())) {
          return LfVote::kAbstain;
        }
        // Predicates over row identifiers tell a reader nothing.
        if ((*ratios)[static_cast<size_t>(c)] > 0.9) return LfVote::kIncoherent;
        return LfVote::kAbstain;
      }));

  rules.push_back(
      MakeLf("negligible_filter_effect", [](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kFilter || !ctx.valid) {
          return LfVote::kAbstain;
        }
        const auto& display = ctx.env->current_display();
        const auto& previous = ctx.env->previous_display();
        if (previous.rows.empty()) return LfVote::kAbstain;
        double kept = static_cast<double>(display.rows.size()) /
                      static_cast<double>(previous.rows.size());
        // Shaving off a sliver of the data (e.g. `id != 176`, or negating
        // one minor token) is splitting hairs, not exploring.
        if (kept > 0.9) return LfVote::kIncoherent;
        return LfVote::kAbstain;
      }));

  rules.push_back(
      MakeLf("selective_filter", [ratios](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kFilter || !ctx.valid) {
          return LfVote::kAbstain;
        }
        int c = ctx.op->filter.column;
        if (c >= 0 && c < static_cast<int>(ratios->size()) &&
            (*ratios)[static_cast<size_t>(c)] > 0.5) {
          // Quasi-key column: a mid-sized cut is easy to produce but means
          // nothing; leave the verdict to the key-specific rules.
          return LfVote::kAbstain;
        }
        const auto& display = ctx.env->current_display();
        const auto& previous = ctx.env->previous_display();
        if (previous.rows.empty()) return LfVote::kAbstain;
        double kept = static_cast<double>(display.rows.size()) /
                      static_cast<double>(previous.rows.size());
        // Experts drill into substantial slices (a dominant protocol, a
        // month, a noisy host) — not into single rows, and not into
        // near-everything.
        if (kept >= 0.02 && kept <= 0.7) return LfVote::kCoherent;
        return LfVote::kAbstain;
      }));

  rules.push_back(
      MakeLf("group_low_cardinality",
             [ratios, types](const RewardContext& ctx) {
               if (ctx.op->type != OpType::kGroup) return LfVote::kAbstain;
               int c = ctx.op->group.group_column;
               if (c < 0 || c >= static_cast<int>(ratios->size())) {
                 return LfVote::kAbstain;
               }
               // A categorical key with a handful of values yields the
               // compact breakdowns notebooks are made of.
               bool categorical =
                   (*types)[static_cast<size_t>(c)] == DataType::kString;
               if (categorical && (*ratios)[static_cast<size_t>(c)] < 0.05) {
                 return LfVote::kCoherent;
               }
               return LfVote::kAbstain;
             }));

  rules.push_back(
      MakeLf("numeric_aggregation", [ratios, types](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kGroup) return LfVote::kAbstain;
        if (ctx.op->group.agg == AggFunc::kCount) return LfVote::kAbstain;
        int a = ctx.op->group.agg_column;
        if (a < 0 || a >= static_cast<int>(types->size())) {
          return LfVote::kAbstain;
        }
        // Aggregating a true numeric measure (not an id) reads naturally;
        // aggregating an id-like column is noise.
        if ((*ratios)[static_cast<size_t>(a)] > 0.9) {
          return LfVote::kIncoherent;
        }
        if ((*types)[static_cast<size_t>(a)] != DataType::kString) {
          return LfVote::kCoherent;
        }
        return LfVote::kAbstain;
      }));

  rules.push_back(
      MakeLf("prefer_equality_filter", [](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kFilter) return LfVote::kAbstain;
        // Experts drill down with whole-token equality (or a numeric
        // range); substring predicates are a scripting idiom, not an
        // exploratory one.
        switch (ctx.op->filter.op) {
          case CompareOp::kContains:
          case CompareOp::kStartsWith:
          case CompareOp::kEndsWith:
            return LfVote::kIncoherent;
          default:
            return LfVote::kAbstain;
        }
      }));

  rules.push_back(
      MakeLf("filter_on_uniform_column", [](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kFilter ||
            ctx.op->filter.op != CompareOp::kEq) {
          return LfVote::kAbstain;
        }
        // An equality drill-down is justified by a token that stands out.
        // When the column was near-uniform over many values in the display
        // the filter came from, the chosen token is arbitrary.
        const auto selection =
            ctx.env->SelectionStats(ctx.env->previous_display());
        const ColumnStats& stats =
            (*selection)[static_cast<size_t>(ctx.op->filter.column)];
        if (stats.distinct > 20 && stats.normalized_entropy > 0.95) {
          return LfVote::kIncoherent;
        }
        return LfVote::kAbstain;
      }));

  rules.push_back(
      MakeLf("repeated_filter_column", [](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kFilter) return LfVote::kAbstain;
        // Re-filtering an attribute the display is already filtered on
        // means the earlier predicate was not the one the analyst wanted
        // (experts adjust a predicate by BACKing out, not by stacking
        // corrections).
        const auto& previous = ctx.env->previous_display();
        for (const FilterPred& pred : previous.filters) {
          if (pred.column == ctx.op->filter.column) {
            return LfVote::kIncoherent;
          }
        }
        return LfVote::kAbstain;
      }));

  rules.push_back(
      MakeLf("filter_chain_too_long", [](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kFilter) return LfVote::kAbstain;
        const auto& steps = ctx.env->steps();
        int consecutive = 1;  // the current operation
        for (size_t i = steps.size() - 1; i-- > 0;) {
          if (steps[i].op.type != OpType::kFilter) break;
          ++consecutive;
        }
        if (consecutive >= 4) return LfVote::kIncoherent;
        return LfVote::kAbstain;
      }));

  rules.push_back(MakeLf("repeated_operation", [](const RewardContext& ctx) {
    const auto& steps = ctx.env->steps();
    if (steps.size() < 2) return LfVote::kAbstain;
    const EdaOperation& current = *ctx.op;
    if (current.type == OpType::kBack) return LfVote::kAbstain;
    for (size_t i = 0; i + 1 < steps.size(); ++i) {
      if (OpEquals(steps[i].op, current)) return LfVote::kIncoherent;
    }
    return LfVote::kAbstain;
  }));

  rules.push_back(MakeLf("consecutive_back", [](const RewardContext& ctx) {
    if (ctx.op->type != OpType::kBack) return LfVote::kAbstain;
    const auto& steps = ctx.env->steps();
    if (steps.size() < 2) return LfVote::kIncoherent;  // opening with BACK
    const EdaStep& prev = steps[steps.size() - 2];
    if (prev.op.type == OpType::kBack) return LfVote::kIncoherent;
    return LfVote::kAbstain;
  }));

  rules.push_back(MakeLf("tiny_filter_result", [](const RewardContext& ctx) {
    if (ctx.op->type != OpType::kFilter || !ctx.valid) return LfVote::kAbstain;
    const auto& display = ctx.env->current_display();
    const auto& previous = ctx.env->previous_display();
    if (previous.rows.empty()) return LfVote::kAbstain;
    double kept = static_cast<double>(display.rows.size()) /
                  static_cast<double>(previous.rows.size());
    if (kept < 0.005) return LfVote::kIncoherent;
    return LfVote::kAbstain;
  }));

  rules.push_back(MakeLf("drill_down_pattern", [](const RewardContext& ctx) {
    const auto& steps = ctx.env->steps();
    if (steps.size() < 2) return LfVote::kAbstain;
    OpType current = ctx.op->type;
    OpType prev = steps[steps.size() - 2].op.type;
    // Example 1.1's shape: group → filter on a group key → group again.
    if ((prev == OpType::kFilter && current == OpType::kGroup) ||
        (prev == OpType::kGroup && current == OpType::kFilter)) {
      return LfVote::kCoherent;
    }
    return LfVote::kAbstain;
  }));

  rules.push_back(MakeLf("invalid_noop", [](const RewardContext& ctx) {
    return ctx.valid ? LfVote::kAbstain : LfVote::kIncoherent;
  }));

  return rules;
}

std::vector<LabelingFunctionPtr> FocalAttributeRules(const Dataset& dataset) {
  const SharedRatios ratios(dataset.table, &dataset.table->distinct_ratios());
  std::vector<LabelingFunctionPtr> rules;
  auto focal = std::make_shared<std::unordered_set<int>>();
  for (const auto& attr : dataset.info.focal_attributes) {
    int c = dataset.table->FindColumn(attr);
    if (c >= 0) focal->insert(c);
  }
  if (focal->empty()) return rules;

  rules.push_back(MakeLf(
      "nonfocal_numeric_range_filter", [focal, ratios](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kFilter) return LfVote::kAbstain;
        const CompareOp op = ctx.op->filter.op;
        const bool ordering = op == CompareOp::kGt || op == CompareOp::kGe ||
                              op == CompareOp::kLt || op == CompareOp::kLe;
        if (!ordering) return LfVote::kAbstain;
        int c = ctx.op->filter.column;
        if (c < 0 || c >= static_cast<int>(ratios->size())) {
          return LfVote::kAbstain;
        }
        // Range predicates make sense on the measures the exploration goal
        // cares about (the focal attributes); an arbitrary threshold on a
        // quasi-key numeric column (flight numbers, packet ids, clock
        // readings) is noise an analyst would never write.
        if (focal->count(c) > 0) return LfVote::kCoherent;
        if ((*ratios)[static_cast<size_t>(c)] > 0.5) {
          return LfVote::kIncoherent;
        }
        return LfVote::kAbstain;
      }));

  rules.push_back(
      MakeLf("focal_aggregation", [focal](const RewardContext& ctx) {
        if (ctx.op->type != OpType::kGroup) return LfVote::kAbstain;
        if (ctx.op->group.agg != AggFunc::kCount &&
            focal->count(ctx.op->group.agg_column) > 0) {
          return LfVote::kCoherent;
        }
        return LfVote::kAbstain;
      }));

  rules.push_back(
      MakeLf("focal_filter_or_group", [focal](const RewardContext& ctx) {
        if (ctx.op->type == OpType::kFilter &&
            focal->count(ctx.op->filter.column) > 0) {
          return LfVote::kCoherent;
        }
        if (ctx.op->type == OpType::kGroup &&
            focal->count(ctx.op->group.group_column) > 0) {
          return LfVote::kCoherent;
        }
        return LfVote::kAbstain;
      }));

  return rules;
}

std::vector<LabelingFunctionPtr> StandardRuleSet(const Dataset& dataset) {
  auto rules = GeneralCoherencyRules(dataset.table);
  auto focal = FocalAttributeRules(dataset);
  rules.insert(rules.end(), focal.begin(), focal.end());
  return rules;
}

}  // namespace atena
