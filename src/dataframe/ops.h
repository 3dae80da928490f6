#ifndef ATENA_DATAFRAME_OPS_H_
#define ATENA_DATAFRAME_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataframe/table.h"

namespace atena {

/// Comparison operators supported by FILTER (paper §4.1: "=, >, contains").
enum class CompareOp {
  kEq,
  kNeq,
  kGt,
  kGe,
  kLt,
  kLe,
  kContains,
  kStartsWith,
  kEndsWith,
};

/// Symbol used in notebook rendering ("==", "contains", ...).
const char* CompareOpSymbol(CompareOp op);
constexpr int kNumCompareOps = 9;

/// Aggregation functions supported by GROUP (paper §4.1: SUM, MAX, COUNT,
/// AVG; we add MIN for symmetry).
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };
const char* AggFuncName(AggFunc func);
constexpr int kNumAggFuncs = 5;

/// Total order over Values used for deterministic display sorting:
/// null < numeric (by value) < string (lexicographic).
bool ValueLess(const Value& a, const Value& b);

/// Chunk-level accounting of one FilterRows call, for benchmarks and tests.
/// A chunk is "skipped" when its zone map proves no selected row can match,
/// and "all-match" when it proves every selected row matches (those rows
/// are emitted without per-row tests). The remainder are "scanned".
struct FilterKernelStats {
  int64_t chunks_total = 0;
  int64_t chunks_skipped = 0;
  int64_t chunks_all_match = 0;
  int64_t chunks_scanned = 0;

  double skip_rate() const {
    return chunks_total == 0 ? 0.0
                             : static_cast<double>(chunks_skipped) /
                                   static_cast<double>(chunks_total);
  }
};

/// Selects the rows of `rows` whose `column` cell matches `op term`.
///
/// Semantics follow Pandas-on-strings behaviour the paper relied on:
///  * Null cells never match any predicate.
///  * Ordering comparisons require a numeric column and numeric term.
///  * kContains/kStartsWith/kEndsWith require a string column; kEq/kNeq on a
///    string column compare whole tokens.
///  * kEq/kNeq between numeric column and numeric term compare by value
///    (int 5 == double 5.0).
///
/// Returns OutOfRange when the table has more rows than an int32 row index
/// can address.
///
/// Runs on the chunked selection-vector kernel (dataframe/kernels.cc): the
/// column's zone maps (ColumnChunkStats) skip chunks that cannot match and
/// bulk-emit chunks that provably match; the rest get a branch-light
/// per-row scan. String kEq/kNeq compare int32 dictionary codes, and
/// substring operators are evaluated once per dictionary entry. The output
/// is bit-identical to the scalar reference the parity tests keep
/// (tests/support/reference_ops.h). When `stats` is given it receives the
/// call's chunk accounting.
Result<std::vector<int32_t>> FilterRows(const Table& table,
                                        const std::vector<int32_t>& rows,
                                        int column, CompareOp op,
                                        const Value& term,
                                        FilterKernelStats* stats = nullptr);

/// A group-by request: one or more key columns plus a single aggregation.
/// `agg_column` is ignored for kCount (which counts rows per group).
struct GroupSpec {
  std::vector<int> group_columns;
  AggFunc agg = AggFunc::kCount;
  int agg_column = -1;
};

/// One result group: its member count, the aggregate (`agg_valid` is false
/// when no non-null input reached the aggregator) and one of its member
/// rows in the source table. That row's group-column cells are the group's
/// key — two rows share a group exactly when their key cells have equal
/// Column::CellKey bits and null flags — so a group stores no boxed key;
/// GroupedResult::Key reads one on demand. Every other reader of a grouped
/// display needs only how many rows each group holds.
struct Group {
  int64_t size = 0;
  double aggregate = 0.0;
  int32_t row = 0;
  bool agg_valid = false;
};
static_assert(sizeof(Group) <= 24, "a cached group is 24 bytes");

/// The grouped result display: groups sorted by key under ValueLess,
/// column by column. Groups whose keys tie (±0.0, NaN, int64 values beyond
/// ±2^53) stay where std::sort leaves them when it starts from the order
/// in which the groups were first encountered.
struct GroupedResult {
  GroupSpec spec;
  std::vector<std::string> key_names;
  std::string agg_name;  // e.g. "AVG(departure_delay)"
  std::vector<Group> groups;

  /// Group sizes as doubles (for the observation encoder's mean/variance).
  std::vector<double> GroupSizes() const;

  /// The key of group `group` in group column `j`, boxed from the group's
  /// member row of `source` (the table this result was computed on): null
  /// for a null key cell, otherwise the cell's exact value.
  Value Key(const Table& source, size_t group, size_t j) const;

  /// Materializes the grouped display as a table (key columns + one
  /// aggregate column) over `source`, the table this result was computed
  /// on, for rendering.
  Result<TablePtr> ToTable(const Table& source) const;
};

/// Groups `rows` of `table` by `spec.group_columns` and aggregates.
/// Requirements: at least one group column; numeric agg column for
/// SUM/MIN/MAX/AVG; all column indices valid.
///
/// Runs serially on the group-by kernel (dataframe/kernels.cc), keyed on
/// the key columns' codes (Column). When every key column is order-coded,
/// a group's key is one composite integer whose order is ValueLess order:
/// a code space of at most 2^16 slots (and at most 16 per selected row) is
/// tallied by direct addressing, which emits groups straight in key order;
/// a larger space up to 2^62 goes through one open-addressing table on the
/// composite key, whose groups are then sorted by it. Every other key keeps
/// exact cell keys in the same table, and its groups are sorted by typed
/// keys that compare exactly as ValueLess does. A group's member row is any
/// of its members (each has the group's key cells): the tally keeps a
/// slot's last row, the table a group's first.
/// SUM/MIN/MAX/AVG take one selection-order sweep over the aggregated
/// column, so each group accumulates its members in selection order and
/// the result is bit-identical to the scalar reference
/// (tests/support/reference_ops.h). A null key cell forms its own group,
/// never merging with any value.
Result<GroupedResult> GroupAggregate(const Table& table,
                                     const std::vector<int32_t>& rows,
                                     const GroupSpec& spec);

/// Validates that a table of `num_rows` rows is fully addressable by int32
/// row ids; `what` prefixes the OutOfRange message. Lets callers (and the
/// boundary tests) probe the limit without materializing a huge table.
Status ValidateInt32RowRange(int64_t num_rows, const std::string& what);

/// Identity row selection [0, num_rows). Returns OutOfRange — instead of
/// the previous fatal check — when a row id would overflow int32.
Result<std::vector<int32_t>> AllRows(const Table& table);

/// AllRows for a bare row count (no table required).
Result<std::vector<int32_t>> AllRowsForCount(int64_t num_rows);

}  // namespace atena

#endif  // ATENA_DATAFRAME_OPS_H_
