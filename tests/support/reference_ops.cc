#include "support/reference_ops.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>

#include "common/hashing.h"
#include "common/string_utils.h"

namespace atena {

namespace {

/// Scans `rows` keeping the non-null rows that satisfy `pred`. The
/// predicate is a template parameter so each operator gets its own tight
/// loop (no per-row switch). The output is reserved from a selectivity
/// estimate over a small stride sample, so typical filters do zero or one
/// reallocation instead of log2(n).
template <typename Pred>
std::vector<int32_t> ScanRows(const Column& col,
                              const std::vector<int32_t>& rows, Pred pred) {
  std::vector<int32_t> out;
  const size_t n = rows.size();
  constexpr size_t kSample = 128;
  if (n <= 4 * kSample) {
    out.reserve(n);
  } else {
    const size_t stride = n / kSample;
    size_t matched = 0;
    for (size_t i = 0; i < kSample; ++i) {
      const int32_t r = rows[i * stride];
      if (!col.IsNull(r) && pred(r)) ++matched;
    }
    // +1 smoothing and a 1/4 head-room margin; a bad estimate only costs a
    // realloc, never correctness.
    const size_t estimate = (n * (matched + 1)) / (kSample + 1);
    out.reserve(std::min(n, estimate + estimate / 4 + 16));
  }
  for (const int32_t r : rows) {
    if (!col.IsNull(r) && pred(r)) out.push_back(r);
  }
  return out;
}

/// Aggregates one group's member rows (already in selection order) and
/// records their count.
void AggregateGroup(const Column& agg_col, AggFunc agg,
                    const std::vector<int32_t>& members, ReferenceGroup* g) {
  g->size = static_cast<int64_t>(members.size());
  if (agg == AggFunc::kCount) {
    g->aggregate = static_cast<double>(members.size());
    g->agg_valid = true;
    return;
  }
  double acc = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  int64_t n = 0;
  for (int32_t r : members) {
    if (agg_col.IsNull(r)) continue;
    double v = agg_col.AsDoubleOrNan(r);
    acc += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    ++n;
  }
  g->agg_valid = (n > 0);
  if (!g->agg_valid) return;
  switch (agg) {
    case AggFunc::kSum:
      g->aggregate = acc;
      break;
    case AggFunc::kMin:
      g->aggregate = mn;
      break;
    case AggFunc::kMax:
      g->aggregate = mx;
      break;
    case AggFunc::kAvg:
      g->aggregate = acc / static_cast<double>(n);
      break;
    case AggFunc::kCount:
      break;
  }
}

}  // namespace

std::vector<int32_t> ScalarFilterRows(const Table& table,
                                      const std::vector<int32_t>& rows,
                                      int column, CompareOp op,
                                      const Value& term) {
  const Column& col = *table.column(column);
  switch (op) {
    case CompareOp::kContains:
      return ScanRows(col, rows, [&](int32_t r) {
        return Contains(col.GetString(r), term.as_string());
      });
    case CompareOp::kStartsWith:
      return ScanRows(col, rows, [&](int32_t r) {
        return StartsWith(col.GetString(r), term.as_string());
      });
    case CompareOp::kEndsWith:
      return ScanRows(col, rows, [&](int32_t r) {
        return EndsWith(col.GetString(r), term.as_string());
      });
    default:
      break;
  }

  if (col.type() == DataType::kString) {
    // Token filters compare dictionary codes: one lookup, integer scans.
    const int32_t code = col.FindCode(term.as_string());
    if (op == CompareOp::kEq) {
      if (code < 0) return {};  // absent matches none
      return ScanRows(col, rows,
                      [&](int32_t r) { return col.GetCode(r) == code; });
    }
    if (code < 0) {
      // Absent term: every non-null row differs from it.
      return ScanRows(col, rows, [](int32_t) { return true; });
    }
    return ScanRows(col, rows,
                    [&](int32_t r) { return col.GetCode(r) != code; });
  }

  double threshold = 0.0;
  term.ToDouble(&threshold);
  switch (op) {
    case CompareOp::kGt:
      return ScanRows(col, rows, [&](int32_t r) {
        return col.AsDoubleOrNan(r) > threshold;
      });
    case CompareOp::kGe:
      return ScanRows(col, rows, [&](int32_t r) {
        return col.AsDoubleOrNan(r) >= threshold;
      });
    case CompareOp::kLt:
      return ScanRows(col, rows, [&](int32_t r) {
        return col.AsDoubleOrNan(r) < threshold;
      });
    case CompareOp::kLe:
      return ScanRows(col, rows, [&](int32_t r) {
        return col.AsDoubleOrNan(r) <= threshold;
      });
    case CompareOp::kEq:
      return ScanRows(col, rows, [&](int32_t r) {
        return col.AsDoubleOrNan(r) == threshold;
      });
    default:
      return ScanRows(col, rows, [&](int32_t r) {
        return col.AsDoubleOrNan(r) != threshold;
      });
  }
}

ReferenceGroupedResult ScalarGroupAggregate(const Table& table,
                                            const std::vector<int32_t>& rows,
                                            const GroupSpec& spec) {
  ReferenceGroupedResult result;
  for (int c : spec.group_columns) {
    result.key_names.push_back(table.column(c)->name());
  }
  result.agg_name = spec.agg == AggFunc::kCount
                        ? "COUNT(*)"
                        : std::string(AggFuncName(spec.agg)) + "(" +
                              table.column(spec.agg_column)->name() + ")";

  // Row→group assignment via an open-addressing hash table on a combined
  // 64-bit key hash. Slots store the owning group index; exact composite
  // keys live contiguously in `key_storage` and are compared on every probe
  // hit, so hash collisions across distinct keys chain to new slots instead
  // of merging groups. Each key column contributes two words to the exact
  // key, a null flag and then the cell key: CellKey's null sentinel is also
  // one non-null value's key, and the flag keeps them apart. Group discovery
  // order is row-encounter order, and the deterministic final ordering comes
  // from the sort below.
  const size_t k = spec.group_columns.size();
  std::vector<const Column*> key_cols;
  for (int c : spec.group_columns) key_cols.push_back(table.column(c).get());

  size_t capacity = 64;
  std::vector<int32_t> slot_group(capacity, -1);
  std::vector<uint64_t> slot_hash(capacity);
  std::vector<uint64_t> group_hash;   // per group, for cheap rehashing
  std::vector<int64_t> key_storage;   // 2k exact-key words per group, flat
  size_t mask = capacity - 1;

  auto grow = [&]() {
    capacity *= 2;
    mask = capacity - 1;
    slot_group.assign(capacity, -1);
    slot_hash.assign(capacity, 0);
    for (size_t g = 0; g < group_hash.size(); ++g) {
      size_t pos = static_cast<size_t>(group_hash[g]) & mask;
      while (slot_group[pos] >= 0) pos = (pos + 1) & mask;
      slot_group[pos] = static_cast<int32_t>(g);
      slot_hash[pos] = group_hash[g];
    }
  };

  std::vector<std::vector<int32_t>> members;  // per group, selection order
  std::vector<int64_t> row_key(2 * k);
  for (int32_t r : rows) {
    uint64_t hash = 0x9E3779B97F4A7C15ULL;
    for (size_t i = 0; i < k; ++i) {
      row_key[2 * i] = key_cols[i]->IsNull(r) ? 1 : 0;
      row_key[2 * i + 1] = key_cols[i]->CellKey(r);
      hash = HashCombine(hash, static_cast<uint64_t>(row_key[2 * i + 1]));
    }

    size_t pos = static_cast<size_t>(hash) & mask;
    int32_t group = -1;
    while (slot_group[pos] >= 0) {
      if (slot_hash[pos] == hash) {
        const int64_t* stored =
            key_storage.data() + static_cast<size_t>(slot_group[pos]) * 2 * k;
        bool equal = true;
        for (size_t i = 0; i < 2 * k; ++i) {
          if (stored[i] != row_key[i]) {
            equal = false;
            break;
          }
        }
        if (equal) {
          group = slot_group[pos];
          break;
        }
      }
      pos = (pos + 1) & mask;
    }
    if (group < 0) {
      group = static_cast<int32_t>(result.groups.size());
      slot_group[pos] = group;
      slot_hash[pos] = hash;
      group_hash.push_back(hash);
      key_storage.insert(key_storage.end(), row_key.begin(), row_key.end());
      ReferenceGroup g;
      g.keys.reserve(k);
      for (const Column* col : key_cols) g.keys.push_back(col->GetValue(r));
      result.groups.push_back(std::move(g));
      members.emplace_back();
      if (result.groups.size() * 4 > capacity * 3) grow();
    }
    members[static_cast<size_t>(group)].push_back(r);
  }

  const Column& agg_col = spec.agg == AggFunc::kCount
                              ? *key_cols[0]
                              : *table.column(spec.agg_column);
  for (size_t g = 0; g < result.groups.size(); ++g) {
    AggregateGroup(agg_col, spec.agg, members[g], &result.groups[g]);
  }

  std::sort(result.groups.begin(), result.groups.end(),
            [](const ReferenceGroup& a, const ReferenceGroup& b) {
              for (size_t i = 0; i < a.keys.size() && i < b.keys.size(); ++i) {
                if (ValueLess(a.keys[i], b.keys[i])) return true;
                if (ValueLess(b.keys[i], a.keys[i])) return false;
              }
              return false;
            });
  return result;
}

}  // namespace atena
