#include "viz/chart.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_utils.h"
#include "dataframe/stats.h"

namespace atena {

const char* ChartKindName(ChartKind kind) {
  switch (kind) {
    case ChartKind::kNone:
      return "none";
    case ChartKind::kBarChart:
      return "bar";
    case ChartKind::kLineChart:
      return "line";
    case ChartKind::kHistogram:
      return "histogram";
  }
  return "?";
}

namespace {

std::string CompositeKeyLabel(const Table& source,
                              const GroupedResult& grouped, size_t group) {
  std::vector<std::string> parts;
  parts.reserve(grouped.key_names.size());
  for (size_t j = 0; j < grouped.key_names.size(); ++j) {
    parts.push_back(grouped.Key(source, group, j).ToString());
  }
  return JoinStrings(parts, " / ");
}

Result<ChartSpec> GroupedChart(const Table& source, const Display& display,
                               const ChartOptions& options) {
  const GroupedResult& grouped = *display.grouped;
  ChartSpec spec;
  if (static_cast<int>(grouped.groups.size()) < options.min_points) {
    spec.kind = ChartKind::kNone;
    return spec;
  }

  // Axis semantics.
  spec.y_label = grouped.agg_name;
  spec.x_label = JoinStrings(grouped.key_names, " / ");
  spec.title = grouped.agg_name + " by " + spec.x_label;

  // Points in key order (GroupAggregate already sorts by key).
  for (size_t g = 0; g < grouped.groups.size(); ++g) {
    const Group& group = grouped.groups[g];
    if (!group.agg_valid) continue;
    spec.points.push_back(
        ChartPoint{CompositeKeyLabel(source, grouped, g), group.aggregate});
  }
  if (static_cast<int>(spec.points.size()) < options.min_points) {
    spec.kind = ChartKind::kNone;
    spec.points.clear();
    return spec;
  }

  // Single numeric key -> the x axis is ordered: draw a line.
  const bool numeric_key =
      grouped.spec.group_columns.size() == 1 &&
      source.column(grouped.spec.group_columns[0])->type() !=
          DataType::kString;
  spec.kind = numeric_key ? ChartKind::kLineChart : ChartKind::kBarChart;

  if (spec.kind == ChartKind::kBarChart &&
      static_cast<int>(spec.points.size()) > options.max_bars) {
    std::stable_sort(spec.points.begin(), spec.points.end(),
                     [](const ChartPoint& a, const ChartPoint& b) {
                       return std::fabs(a.value) > std::fabs(b.value);
                     });
    spec.points.resize(static_cast<size_t>(options.max_bars));
    spec.truncated = true;
  }
  return spec;
}

/// Picks the column to histogram for a raw (ungrouped) display: the most
/// recently filtered numeric column if any, else the first numeric column
/// that is not key-like (≤ 50% distinct values in the selection).
int PickHistogramColumn(const Table& source, const Display& display) {
  for (auto it = display.filters.rbegin(); it != display.filters.rend();
       ++it) {
    if (it->column >= 0 &&
        source.column(it->column)->type() != DataType::kString) {
      return it->column;
    }
  }
  for (int c = 0; c < source.num_columns(); ++c) {
    const Column& col = *source.column(c);
    if (col.type() == DataType::kString) continue;
    ColumnStats stats = ComputeColumnStats(col, display.rows);
    if (stats.count > 0 &&
        static_cast<double>(stats.distinct) <=
            0.5 * static_cast<double>(stats.count)) {
      return c;
    }
  }
  return -1;
}

Result<ChartSpec> HistogramChart(const Table& source, const Display& display,
                                 const ChartOptions& options) {
  ChartSpec spec;
  int column = PickHistogramColumn(source, display);
  if (column < 0 || display.rows.size() < 2) {
    spec.kind = ChartKind::kNone;
    return spec;
  }
  const Column& col = *source.column(column);

  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  int64_t n = 0;
  for (int32_t r : display.rows) {
    if (col.IsNull(r)) continue;
    double v = col.AsDoubleOrNan(r);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    ++n;
  }
  if (n < options.min_points || !(hi > lo)) {
    spec.kind = ChartKind::kNone;
    return spec;
  }

  const int bins = std::max(2, options.histogram_bins);
  std::vector<double> counts(static_cast<size_t>(bins), 0.0);
  const double width = (hi - lo) / bins;
  for (int32_t r : display.rows) {
    if (col.IsNull(r)) continue;
    double v = col.AsDoubleOrNan(r);
    int b = static_cast<int>((v - lo) / width);
    if (b >= bins) b = bins - 1;  // hi lands in the last bin
    if (b < 0) b = 0;
    counts[static_cast<size_t>(b)] += 1.0;
  }

  spec.kind = ChartKind::kHistogram;
  spec.title = "Distribution of " + col.name();
  spec.x_label = col.name();
  spec.y_label = "count";
  for (int b = 0; b < bins; ++b) {
    const double from = lo + b * width;
    spec.points.push_back(ChartPoint{
        "[" + FormatDouble(from, 1) + ", " + FormatDouble(from + width, 1) +
            ")",
        counts[static_cast<size_t>(b)]});
  }
  return spec;
}

}  // namespace

Result<ChartSpec> RecommendChart(const Table& source, const Display& display,
                                 const ChartOptions& options) {
  if (display.grouped) return GroupedChart(source, display, options);
  return HistogramChart(source, display, options);
}

}  // namespace atena
