#include "reward/interestingness.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "common/math_utils.h"
#include "dataframe/stats.h"

namespace atena {

namespace {

/// Sigmoid squashing of a KL divergence into (0,1) — "the sigmoid h(·) is
/// used to obtain a more significant difference in values" (paper §4.2).
/// Center 0.5 nat: a mild distribution shift scores ~0.5, a strong shift
/// saturates toward 1.
double SquashKl(double kl) { return ScaledSigmoid(kl, 0.5, 0.25); }

/// Support discount: a deviation witnessed by a handful of tuples is an
/// anecdote, not an exception (the exceptionality literature the reward
/// follows [37, 44] scores subgroups, not single rows). ≈0 for one row,
/// ≈1 from a dozen rows up.
double SupportFactor(size_t result_rows) {
  return ScaledSigmoid(static_cast<double>(result_rows), 5.0, 2.0);
}

/// Group sizes histogrammed as *relative shares* on a half-log2 scale:
/// comparing exact sizes would register any one-row change as a full
/// distribution shift, and comparing absolute sizes would register a
/// proportional shrink (which leaves the composition unchanged) as one.
std::unordered_map<int64_t, double> GroupSizeHistogram(const Display& d) {
  std::unordered_map<int64_t, double> hist;
  if (!d.grouped || d.rows.empty()) return hist;
  const double total = static_cast<double>(d.rows.size());
  for (const auto& g : d.grouped->groups) {
    const double share = static_cast<double>(g.size) / total;
    hist[static_cast<int64_t>(std::floor(2.0 * std::log2(share)))] += 1.0;
  }
  return hist;
}

/// Equi-width histogram of two value samples over their common range, so
/// continuous aggregated attributes compare by distribution shape rather
/// than by (almost always disjoint) exact values.
void BinnedHistograms(const std::vector<double>& a,
                      const std::vector<double>& b, int bins,
                      std::unordered_map<int64_t, double>* ha,
                      std::unordered_map<int64_t, double>* hb) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (double v : a) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  for (double v : b) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!(hi > lo)) {
    if (!a.empty()) (*ha)[0] = static_cast<double>(a.size());
    if (!b.empty()) (*hb)[0] = static_cast<double>(b.size());
    return;
  }
  const double width = (hi - lo) / bins;
  auto bin_of = [&](double v) {
    int b = static_cast<int>((v - lo) / width);
    return static_cast<int64_t>(std::min(b, bins - 1));
  };
  for (double v : a) (*ha)[bin_of(v)] += 1.0;
  for (double v : b) (*hb)[bin_of(v)] += 1.0;
}

/// Values of `column` over `rows`, nulls skipped.
std::vector<double> NumericValues(const Column& column,
                                  const std::vector<int32_t>& rows) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (int32_t r : rows) {
    if (column.IsNull(r)) continue;
    out.push_back(column.AsDoubleOrNan(r));
  }
  return out;
}

/// max_A KL(P_A(current) || P_A(previous)) over the capped selections of
/// an ungrouped display and its predecessor: a pure function of the two
/// row signatures, the filtered column and stats_row_cap, memoized under
/// FilterDeviationKey.
double FilterDeviation(const EdaEnvironment& env, const Display& current,
                       const Display& previous) {
  // Deviation is measured over the analyzable (categorical-ish) attributes
  // only: a range cut on a key-like or continuous column (row ids,
  // timestamps) trivially reshapes that column's distribution without
  // telling a reader anything.
  // ...and excluding the filtered attribute itself: a predicate on A
  // trivially reshapes A's distribution; what makes the subset exceptional
  // is deviation in the OTHER attributes (the SeeDB-style deviation the
  // paper cites [45]).
  const int filtered_column =
      current.filters.empty() ? -1 : current.filters.back().column;
  DisplayCache* cache = env.display_cache().get();
  const uint64_t key =
      FilterDeviationKey(current.rows_signature, previous.rows_signature,
                         filtered_column, env.config().stats_row_cap);
  if (cache) {
    if (std::optional<double> hit = cache->GetDeviation(key)) return *hit;
  }

  const Table& table = env.table();
  // Cached, zero-copy capped selections (shared with the encoder's views).
  const RowSet cur_rows = env.CappedRows(current);
  const RowSet prev_rows = env.CappedRows(previous);
  const std::vector<double>& ratios = table.distinct_ratios();
  double max_kl = 0.0;
  bool any_column = false;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c == filtered_column) continue;
    if (ratios[static_cast<size_t>(c)] > 0.5) continue;
    any_column = true;
    max_kl = std::max(max_kl, SelectionKlDivergence(*table.column(c),
                                                    cur_rows, prev_rows));
  }
  if (!any_column) {
    // Degenerate schema (every column key-like): fall back to all columns.
    for (int c = 0; c < table.num_columns(); ++c) {
      max_kl = std::max(max_kl, SelectionKlDivergence(*table.column(c),
                                                      cur_rows, prev_rows));
    }
  }
  if (cache) cache->PutDeviation(key, max_kl);
  return max_kl;
}

}  // namespace

double GroupInterestingness(int64_t num_groups, int num_group_attrs,
                            int64_t num_tuples) {
  if (num_groups <= 0 || num_tuples <= 0) return 0.0;
  const double g = static_cast<double>(num_groups);
  const double a = static_cast<double>(num_group_attrs);
  const double r = static_cast<double>(num_tuples);

  // h_g: a bump over the group count — at least 2 groups, not hundreds.
  const double hg = SigmoidBump(g, /*low_center=*/1.5, /*low_width=*/0.25,
                                /*high_center=*/25.0, /*high_width=*/8.0);
  // h_r: groups should summarize many tuples (conciseness [9, 17]):
  // average group size of 3+ is informative, singleton groups are not.
  const double hr = ScaledSigmoid(r / g, /*center=*/3.0, /*width=*/1.5);
  // h_a: shallow groupings are easier to read; 4+ attributes is penalized.
  const double ha = 1.0 - ScaledSigmoid(a, /*center=*/3.5, /*width=*/0.5);
  return hg * hr * ha;
}

double FilterInterestingness(const EdaEnvironment& env,
                             const Display& current, const Display& previous) {
  const double support = SupportFactor(current.rows.size());
  if (current.is_grouped()) {
    // Compare only the aggregated attribute (paper §4.2). Continuous
    // attributes are compared by binned distribution; exact-value
    // histograms would make every filter look maximally interesting.
    if (current.agg != AggFunc::kCount && current.agg_column >= 0) {
      const Column& agg_col = *env.table().column(current.agg_column);
      std::unordered_map<int64_t, double> p, q;
      BinnedHistograms(NumericValues(agg_col, env.CappedRows(current)),
                       NumericValues(agg_col, env.CappedRows(previous)), 16,
                       &p, &q);
      return support * SquashKl(KlDivergence(p, q));
    }
    // COUNT aggregation: compare the group-size distributions.
    auto p = GroupSizeHistogram(current);
    auto q = GroupSizeHistogram(previous);
    if (q.empty()) return support * SquashKl(KlDivergence(p, p));
    return support * SquashKl(KlDivergence(p, q));
  }
  return support * SquashKl(FilterDeviation(env, current, previous));
}

double OperationInterestingness(const RewardContext& context) {
  if (!context.valid) return 0.0;
  const EdaEnvironment& env = *context.env;
  switch (context.op->type) {
    case OpType::kGroup: {
      const Display& d = env.current_display();
      if (!d.grouped) return 0.0;
      return GroupInterestingness(
          static_cast<int64_t>(d.grouped->groups.size()),
          static_cast<int>(d.group_columns.size()),
          static_cast<int64_t>(d.rows.size()));
    }
    case OpType::kFilter:
      return FilterInterestingness(env, env.current_display(),
                                   env.previous_display());
    case OpType::kBack:
      return 0.0;
  }
  return 0.0;
}

}  // namespace atena
