#ifndef ATENA_TESTS_SUPPORT_REFERENCE_OPS_H_
#define ATENA_TESTS_SUPPORT_REFERENCE_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataframe/ops.h"
#include "dataframe/table.h"

namespace atena {

// Scalar reference implementations of FilterRows and GroupAggregate: the
// plain per-row loops the chunked kernels must match bit for bit. The parity
// tests compare against them and bench_dataframe's _Scalar rows time them;
// no library under src/ links them. They accept valid input only: an
// argument FilterRows or GroupAggregate would reject with an error status is
// a precondition violation here.

/// FilterRows as a per-row scan of `rows`: null cells never match, numeric
/// cells compare as doubles, string kEq/kNeq compare dictionary codes and
/// the substring operators test each cell's string.
std::vector<int32_t> ScalarFilterRows(const Table& table,
                                      const std::vector<int32_t>& rows,
                                      int column, CompareOp op,
                                      const Value& term);

/// One group of the scalar reference: its key values boxed from its first
/// member (one per group column), its member count and its aggregate.
struct ReferenceGroup {
  std::vector<Value> keys;
  int64_t size = 0;
  double aggregate = 0.0;
  bool agg_valid = false;
};

/// The scalar reference's grouped display: GroupAggregate's header and its
/// groups in GroupAggregate's output order, every key boxed.
struct ReferenceGroupedResult {
  std::vector<std::string> key_names;
  std::string agg_name;
  std::vector<ReferenceGroup> groups;
};

/// GroupAggregate as a single-threaded hash group-by: groups are discovered
/// in row-encounter order, members appended in selection order, each group
/// aggregated over its members in that order, then the groups (keys, member
/// counts and aggregates) sorted by key with ValueLess.
ReferenceGroupedResult ScalarGroupAggregate(const Table& table,
                                            const std::vector<int32_t>& rows,
                                            const GroupSpec& spec);

}  // namespace atena

#endif  // ATENA_TESTS_SUPPORT_REFERENCE_OPS_H_
