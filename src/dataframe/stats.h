#ifndef ATENA_DATAFRAME_STATS_H_
#define ATENA_DATAFRAME_STATS_H_

#include <cstdint>
#include <vector>

#include "dataframe/table.h"
#include "dataframe/value.h"

namespace atena {

/// Descriptive statistics of one column over a row selection — exactly the
/// three per-attribute features the observation vector encodes (paper §4.1):
/// values' entropy, number of distinct values, number of nulls.
struct ColumnStats {
  double entropy = 0.0;            // natural-log Shannon entropy
  double normalized_entropy = 0.0; // entropy / log(distinct), in [0,1]
  int64_t distinct = 0;            // distinct non-null values
  int64_t nulls = 0;               // null cells in the selection
  int64_t count = 0;               // selection size
};

// All functions below share one counting pass over the selection
// (stats.cc): distinct non-null cell keys in first-occurrence order with
// exact counts. Results are bit-identical to histogramming with one
// std::unordered_map operator[] per row — the map iteration order, and so
// every entropy/KL sum and TokenFrequencies' tie order, is the same
// (DESIGN.md §6, "Stats"). Where a sum needs that order, the map is
// rebuilt on a per-thread arena (stats.cc, ArenaScope).

/// Computes ColumnStats of `column` restricted to `rows`.
ColumnStats ComputeColumnStats(const Column& column,
                               const std::vector<int32_t>& rows);

/// ColumnStats of every column of `table` over `rows`, in column order.
std::vector<ColumnStats> ComputeSelectionStats(
    const Table& table, const std::vector<int32_t>& rows);

/// KL divergence (common/math_utils.h KlDivergence) between the value
/// histograms of `column` over `p_rows` and over `q_rows`, keyed by
/// Column::CellKey, nulls excluded: the deviation the FILTER reward
/// measures per attribute (paper §4.2). The histograms and the KL's union
/// map live on a per-thread arena; their buckets, iteration order and so
/// every bit of the result equal those of the per-row map loop.
double SelectionKlDivergence(const Column& column,
                             const std::vector<int32_t>& p_rows,
                             const std::vector<int32_t>& q_rows);

/// One token of a column and its frequency in the selection. The token is
/// kept as its Column::CellKey; Column::KeyValue boxes it where a reader
/// needs the value (a filter term, a table description).
struct TokenFreq {
  int64_t key = 0;
  int64_t count = 0;
};
static_assert(sizeof(TokenFreq) == 16, "a cached token is 16 bytes");

/// Distinct non-null tokens of `column` within `rows`, sorted by descending
/// frequency, equal frequencies by ValueLess (dataframe/ops.h). Tokens that
/// tie on both — possible only for NaN, for +0.0 against -0.0, and for
/// int64 values beyond ±2^53 that round to one double — are left in the
/// order std::sort leaves them when it starts from the per-row map's
/// iteration order. This is the token list the logarithmic filter-term
/// binning operates on (paper §5).
std::vector<TokenFreq> TokenFrequencies(const Column& column,
                                        const std::vector<int32_t>& rows);

}  // namespace atena

#endif  // ATENA_DATAFRAME_STATS_H_
