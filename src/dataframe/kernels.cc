// FilterRows and GroupAggregate (declared in dataframe/ops.h): the chunked
// selection-vector filter and the serial group-by kernels.
#include "dataframe/ops.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>

#include "common/hashing.h"
#include "common/string_utils.h"

namespace atena {

namespace {

bool IsNumericType(DataType type) {
  return type == DataType::kInt64 || type == DataType::kFloat64;
}

bool IsOrderingOp(CompareOp op) {
  return op == CompareOp::kGt || op == CompareOp::kGe ||
         op == CompareOp::kLt || op == CompareOp::kLe;
}

bool IsStringOp(CompareOp op) {
  return op == CompareOp::kContains || op == CompareOp::kStartsWith ||
         op == CompareOp::kEndsWith;
}

// ---------------------------------------------------------------------------
// Filter.
// ---------------------------------------------------------------------------

struct FilterPlan {
  enum class Mode {
    kNumeric,     // ordering or numeric equality: AsDoubleOrNan vs threshold
    kStringCode,  // string kEq/kNeq: dictionary-code compare
    kSubstring,   // kContains/kStartsWith/kEndsWith over the dictionary
  };
  Mode mode = Mode::kNumeric;
  CompareOp op = CompareOp::kEq;
  double threshold = 0.0;               // kNumeric
  int32_t code = -1;                    // kStringCode; -1 = term not in dict
  const std::string* needle = nullptr;  // kSubstring; borrowed from the term
};

Result<FilterPlan> PlanFilter(const Table& table, int column, CompareOp op,
                              const Value& term) {
  if (column < 0 || column >= table.num_columns()) {
    return Status::OutOfRange("FilterRows: column index " +
                              std::to_string(column));
  }
  if (table.num_rows() > std::numeric_limits<int32_t>::max()) {
    return Status::OutOfRange(
        "FilterRows: table exceeds int32 row-index range (" +
        std::to_string(table.num_rows()) + " rows)");
  }
  const Column& col = *table.column(column);
  if (term.is_null()) {
    return Status::InvalidArgument("FilterRows: null filter term");
  }

  FilterPlan plan;
  plan.op = op;
  if (IsOrderingOp(op)) {
    if (!IsNumericType(col.type())) {
      return Status::TypeMismatch("ordering filter on non-numeric column '" +
                                  col.name() + "'");
    }
    if (!term.ToDouble(&plan.threshold)) {
      return Status::TypeMismatch("ordering filter with non-numeric term");
    }
    plan.mode = FilterPlan::Mode::kNumeric;
    return plan;
  }

  if (IsStringOp(op)) {
    if (col.type() != DataType::kString) {
      return Status::TypeMismatch("substring filter on non-string column '" +
                                  col.name() + "'");
    }
    if (!term.is_string()) {
      return Status::TypeMismatch("substring filter with non-string term");
    }
    plan.mode = FilterPlan::Mode::kSubstring;
    plan.needle = &term.as_string();
    return plan;
  }

  // Equality family.
  if (col.type() == DataType::kString) {
    if (!term.is_string()) {
      return Status::TypeMismatch("equality filter on string column '" +
                                  col.name() + "' with non-string term");
    }
    plan.mode = FilterPlan::Mode::kStringCode;
    plan.code = col.FindCode(term.as_string());
    return plan;
  }
  if (!term.ToDouble(&plan.threshold)) {
    return Status::TypeMismatch("equality filter on numeric column '" +
                                col.name() + "' with non-numeric term");
  }
  plan.mode = FilterPlan::Mode::kNumeric;
  return plan;
}

enum class ChunkDecision { kSkip, kScan, kAllMatch };

// Numeric comparison policies. Row() is the per-row test on the double view
// of the cell; Any()/All() are the zone-map forms over the chunk's non-NaN
// value range [mn, mx]. kNanMatches marks operators a NaN cell satisfies
// (only !=, since NaN != t is true); NaN cells are invisible to mn/mx, so
// Classify() folds nan_count in separately.
//
// IntBound()/IntRow() are the exact integer forms used by the dense int64
// scan: for any int64 cell v with |v| <= 2^53 (so double(v) is exact) and
// any finite threshold t with |t| inside int64 range,
//   Row(double(v), t) == IntRow(v, b)   where IntBound(t, &b) derived b.
// The mapping replaces the real-valued comparison against t with an
// integer comparison against floor(t) or ceil(t): e.g. v > t iff
// v > floor(t) (when t is integral the two are the same test, otherwise
// v > t iff v >= ceil(t) = floor(t) + 1). IntBound() returns false when no
// such bound exists (NaN t, |t| too large, or non-integral t under ==/!=)
// and the scan falls back to the double loop.
constexpr double kIntBoundLimit = 9.0e18;  // < 2^63; floor/ceil stay in range

struct GtOp {
  static constexpr bool kNanMatches = false;
  static bool Row(double v, double t) { return v > t; }
  static bool Any(double /*mn*/, double mx, double t) { return mx > t; }
  static bool All(double mn, double /*mx*/, double t) { return mn > t; }
  static bool IntBound(double t, int64_t* b) {
    if (!(t >= -kIntBoundLimit && t <= kIntBoundLimit)) return false;
    *b = static_cast<int64_t>(std::floor(t));
    return true;
  }
  static bool IntRow(int64_t v, int64_t b) { return v > b; }
};
struct GeOp {
  static constexpr bool kNanMatches = false;
  static bool Row(double v, double t) { return v >= t; }
  static bool Any(double /*mn*/, double mx, double t) { return mx >= t; }
  static bool All(double mn, double /*mx*/, double t) { return mn >= t; }
  static bool IntBound(double t, int64_t* b) {
    if (!(t >= -kIntBoundLimit && t <= kIntBoundLimit)) return false;
    *b = static_cast<int64_t>(std::ceil(t));
    return true;
  }
  static bool IntRow(int64_t v, int64_t b) { return v >= b; }
};
struct LtOp {
  static constexpr bool kNanMatches = false;
  static bool Row(double v, double t) { return v < t; }
  static bool Any(double mn, double /*mx*/, double t) { return mn < t; }
  static bool All(double /*mn*/, double mx, double t) { return mx < t; }
  static bool IntBound(double t, int64_t* b) {
    if (!(t >= -kIntBoundLimit && t <= kIntBoundLimit)) return false;
    *b = static_cast<int64_t>(std::ceil(t));
    return true;
  }
  static bool IntRow(int64_t v, int64_t b) { return v < b; }
};
struct LeOp {
  static constexpr bool kNanMatches = false;
  static bool Row(double v, double t) { return v <= t; }
  static bool Any(double mn, double /*mx*/, double t) { return mn <= t; }
  static bool All(double /*mn*/, double mx, double t) { return mx <= t; }
  static bool IntBound(double t, int64_t* b) {
    if (!(t >= -kIntBoundLimit && t <= kIntBoundLimit)) return false;
    *b = static_cast<int64_t>(std::floor(t));
    return true;
  }
  static bool IntRow(int64_t v, int64_t b) { return v <= b; }
};
struct EqOp {
  static constexpr bool kNanMatches = false;
  static bool Row(double v, double t) { return v == t; }
  static bool Any(double mn, double mx, double t) {
    return t >= mn && t <= mx;
  }
  static bool All(double mn, double mx, double t) {
    return mn == mx && mn == t;
  }
  static bool IntBound(double t, int64_t* b) {
    if (!(t >= -kIntBoundLimit && t <= kIntBoundLimit)) return false;
    if (std::floor(t) != t) return false;  // non-integral t matches no int
    *b = static_cast<int64_t>(t);
    return true;
  }
  static bool IntRow(int64_t v, int64_t b) { return v == b; }
};
struct NeqOp {
  static constexpr bool kNanMatches = true;
  static bool Row(double v, double t) { return v != t; }
  static bool Any(double mn, double mx, double t) {
    return !(mn == mx && mn == t);
  }
  static bool All(double mn, double mx, double t) { return t < mn || t > mx; }
  static bool IntBound(double t, int64_t* b) {
    if (!(t >= -kIntBoundLimit && t <= kIntBoundLimit)) return false;
    if (std::floor(t) != t) return false;
    *b = static_cast<int64_t>(t);
    return true;
  }
  static bool IntRow(int64_t v, int64_t b) { return v != b; }
};

template <typename T, typename Op>
struct NumericPred {
  const T* data;
  const uint8_t* valid;
  double t;

  ChunkDecision Classify(const ColumnChunkStats& cs, int64_t len) const {
    if (cs.null_count == len) return ChunkDecision::kSkip;  // nulls never match
    const bool nan_hits = Op::kNanMatches && cs.nan_count > 0;
    const bool has_finite = cs.null_count + cs.nan_count < len;
    if (!(has_finite && Op::Any(cs.min, cs.max, t)) && !nan_hits) {
      return ChunkDecision::kSkip;
    }
    if (cs.null_count == 0 && (cs.nan_count == 0 || Op::kNanMatches) &&
        (!has_finite || Op::All(cs.min, cs.max, t))) {
      return ChunkDecision::kAllMatch;
    }
    return ChunkDecision::kScan;
  }
  int Test(int64_t r) const {
    return valid[r] & static_cast<int>(Op::Row(static_cast<double>(data[r]), t));
  }

  /// Dense evaluation of one contiguous chunk into a byte-per-row match
  /// buffer (bits[i] == Test(lo + i)). The loops are branch-free over
  /// contiguous arrays so they auto-vectorize; null-free chunks (the
  /// common case) drop the validity load, and int64 chunks whose values
  /// the double view represents exactly compare integers directly instead
  /// of converting every cell.
  void FillDense(const ColumnChunkStats& cs, int64_t lo, int64_t hi,
                 uint8_t* bits) const {
    const int64_t len = hi - lo;
    const T* d = data + lo;
    const uint8_t* v = valid + lo;
    if constexpr (std::is_same_v<T, int64_t>) {
      constexpr int64_t kExact = int64_t{1} << 53;
      int64_t b;
      if (cs.min_int >= -kExact && cs.max_int <= kExact &&
          Op::IntBound(t, &b)) {
        if (cs.null_count == 0) {
          for (int64_t i = 0; i < len; ++i) {
            bits[i] = static_cast<uint8_t>(Op::IntRow(d[i], b));
          }
        } else {
          for (int64_t i = 0; i < len; ++i) {
            bits[i] = v[i] & static_cast<uint8_t>(Op::IntRow(d[i], b));
          }
        }
        return;
      }
    }
    if (cs.null_count == 0) {
      for (int64_t i = 0; i < len; ++i) {
        bits[i] = static_cast<uint8_t>(Op::Row(static_cast<double>(d[i]), t));
      }
    } else {
      for (int64_t i = 0; i < len; ++i) {
        bits[i] =
            v[i] & static_cast<uint8_t>(Op::Row(static_cast<double>(d[i]), t));
      }
    }
  }
};

struct CodeEqPred {
  const int32_t* codes;
  const uint8_t* valid;
  int32_t c;

  ChunkDecision Classify(const ColumnChunkStats& cs, int64_t len) const {
    if (cs.null_count == len) return ChunkDecision::kSkip;
    if (c < cs.min_code || c > cs.max_code) return ChunkDecision::kSkip;
    // c is inside the range, so a single-code null-free chunk is all c.
    if (cs.null_count == 0 && cs.min_code == cs.max_code) {
      return ChunkDecision::kAllMatch;
    }
    return ChunkDecision::kScan;
  }
  int Test(int64_t r) const {
    return valid[r] & static_cast<int>(codes[r] == c);
  }
  void FillDense(const ColumnChunkStats& cs, int64_t lo, int64_t hi,
                 uint8_t* bits) const {
    const int64_t len = hi - lo;
    const int32_t* d = codes + lo;
    if (cs.null_count == 0) {
      for (int64_t i = 0; i < len; ++i) {
        bits[i] = static_cast<uint8_t>(d[i] == c);
      }
    } else {
      const uint8_t* v = valid + lo;
      for (int64_t i = 0; i < len; ++i) {
        bits[i] = v[i] & static_cast<uint8_t>(d[i] == c);
      }
    }
  }
};

struct CodeNeqPred {
  const int32_t* codes;
  const uint8_t* valid;
  int32_t c;  // may be -1 (absent term): every non-null row differs

  ChunkDecision Classify(const ColumnChunkStats& cs, int64_t len) const {
    if (cs.null_count == len) return ChunkDecision::kSkip;
    if (cs.min_code == cs.max_code && cs.min_code == c) {
      return ChunkDecision::kSkip;
    }
    if (cs.null_count == 0 && (c < cs.min_code || c > cs.max_code)) {
      return ChunkDecision::kAllMatch;
    }
    return ChunkDecision::kScan;
  }
  int Test(int64_t r) const {
    return valid[r] & static_cast<int>(codes[r] != c);
  }
  void FillDense(const ColumnChunkStats& cs, int64_t lo, int64_t hi,
                 uint8_t* bits) const {
    const int64_t len = hi - lo;
    const int32_t* d = codes + lo;
    if (cs.null_count == 0) {
      for (int64_t i = 0; i < len; ++i) {
        bits[i] = static_cast<uint8_t>(d[i] != c);
      }
    } else {
      const uint8_t* v = valid + lo;
      for (int64_t i = 0; i < len; ++i) {
        bits[i] = v[i] & static_cast<uint8_t>(d[i] != c);
      }
    }
  }
};

// Substring operators: the predicate was evaluated once per dictionary
// entry into a byte map, so the per-row test is a single indexed load.
struct DictBitmapPred {
  const int32_t* codes;
  const uint8_t* valid;
  const uint8_t* match;  // one byte per dictionary entry
  int32_t min_match;     // code bounds of matching entries
  int32_t max_match;

  ChunkDecision Classify(const ColumnChunkStats& cs, int64_t len) const {
    if (cs.null_count == len) return ChunkDecision::kSkip;
    if (cs.max_code < min_match || cs.min_code > max_match) {
      return ChunkDecision::kSkip;
    }
    return ChunkDecision::kScan;
  }
  int Test(int64_t r) const { return valid[r] & match[codes[r]]; }
  void FillDense(const ColumnChunkStats& cs, int64_t lo, int64_t hi,
                 uint8_t* bits) const {
    const int64_t len = hi - lo;
    const int32_t* d = codes + lo;
    // Null rows carry dictionary code 0 (see ColumnBuilder::AppendNull), so
    // the match[] lookup stays in bounds on both branches.
    if (cs.null_count == 0) {
      for (int64_t i = 0; i < len; ++i) {
        bits[i] = match[d[i]];
      }
    } else {
      const uint8_t* v = valid + lo;
      for (int64_t i = 0; i < len; ++i) {
        bits[i] = v[i] & match[d[i]];
      }
    }
  }
};

/// Emits the selected row ids of one dense chunk from its byte-match
/// buffer. Processes eight match bytes per step: an all-zero word (the
/// common case under a selective predicate) advances with one compare, an
/// all-ones word emits eight consecutive ids branch-free, and a mixed word
/// is compressed to an 8-bit mask (one multiply gathers the eight 0/1
/// bytes into the top byte) that is then walked set-bit by set-bit — work
/// proportional to the matches, not the rows. Returns the advanced output
/// cursor.
inline size_t EmitDense(const uint8_t* bits, int64_t lo, int64_t len,
                        int32_t* out, size_t m) {
  constexpr uint64_t kAllOnes = 0x0101010101010101ULL;
  constexpr uint64_t kMaskGather = 0x0102040810204080ULL;
  int64_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t word;
    std::memcpy(&word, bits + i, sizeof(word));
    if (word == 0) continue;
    const int32_t base = static_cast<int32_t>(lo + i);
    if (word == kAllOnes) {
      for (int32_t j = 0; j < 8; ++j) {
        out[m + static_cast<size_t>(j)] = base + j;
      }
      m += 8;
      continue;
    }
    uint32_t mask = static_cast<uint32_t>((word * kMaskGather) >> 56);
    while (mask != 0) {
      out[m++] = base + static_cast<int32_t>(__builtin_ctz(mask));
      mask &= mask - 1;
    }
  }
  for (; i < len; ++i) {
    out[m] = static_cast<int32_t>(lo + i);
    m += bits[i];
  }
  return m;
}

/// Drives a predicate over the selection chunk by chunk. Selections the
/// system produces are sorted ascending; sorted inputs get zone-map chunk
/// skipping (with lower_bound jumps over skipped chunks in sparse
/// selections) and bulk emission of all-match chunks. An unsorted input —
/// possible for external callers — falls back to a flat branch-light scan
/// with identical output. Identity selections evaluate scanned chunks in
/// two phases — a vectorizable dense predicate pass into a stack match
/// buffer (FillDense), then word-at-a-time emission (EmitDense) — while
/// sparse selections write output rows unconditionally and advance the
/// cursor by the match bit, so no inner loop carries a data-dependent
/// branch.
template <typename Pred>
std::vector<int32_t> ChunkedScan(const Column& col,
                                 const std::vector<int32_t>& rows,
                                 const Pred& pred, FilterKernelStats* stats) {
  const size_t n = rows.size();
  std::vector<int32_t> out(n);
  int32_t* out_data = out.data();
  size_t m = 0;

  // Sortedness precheck, blockwise: the inner loops accumulate flags
  // branch-free (so they vectorize) and the outer loop still bails out on
  // the first unsorted block instead of scanning the whole selection.
  bool nondecreasing = true;
  bool strict = true;
  {
    constexpr size_t kCheckBlock = 4096;
    size_t i = 1;
    while (i < n && nondecreasing) {
      const size_t end = std::min(n, i + kCheckBlock);
      int nd = 1;
      int st = 1;
      for (; i < end; ++i) {
        nd &= static_cast<int>(rows[i] >= rows[i - 1]);
        st &= static_cast<int>(rows[i] > rows[i - 1]);
      }
      nondecreasing = nd != 0;
      strict = strict && st != 0;
    }
  }

  const auto& chunks = col.chunk_stats();
  const int64_t num_chunks = static_cast<int64_t>(chunks.size());
  const int64_t num_rows = col.length();
  FilterKernelStats local;

  if (!nondecreasing) {
    local.chunks_total = num_chunks;
    local.chunks_scanned = num_chunks;
    for (size_t i = 0; i < n; ++i) {
      const int32_t r = rows[i];
      out_data[m] = r;
      m += static_cast<size_t>(pred.Test(r));
    }
  } else if (strict && static_cast<int64_t>(n) == num_rows) {
    // Identity selection (the overwhelmingly common root display): iterate
    // chunks directly, no selection indirection at all.
    alignas(64) uint8_t bits[kColumnChunkSize];
    for (int64_t c = 0; c < num_chunks; ++c) {
      const int64_t lo = c << kColumnChunkShift;
      const int64_t hi = std::min(num_rows, lo + kColumnChunkSize);
      ++local.chunks_total;
      const ChunkDecision d =
          pred.Classify(chunks[static_cast<size_t>(c)], hi - lo);
      if (d == ChunkDecision::kSkip) {
        ++local.chunks_skipped;
        continue;
      }
      if (d == ChunkDecision::kAllMatch) {
        ++local.chunks_all_match;
        for (int64_t r = lo; r < hi; ++r) {
          out_data[m++] = static_cast<int32_t>(r);
        }
        continue;
      }
      ++local.chunks_scanned;
      pred.FillDense(chunks[static_cast<size_t>(c)], lo, hi, bits);
      m = EmitDense(bits, lo, hi - lo, out_data, m);
    }
  } else {
    // Sorted (possibly sparse, possibly with duplicates) selection: visit
    // only the chunks the selection touches.
    size_t i = 0;
    while (i < n) {
      const int64_t c = static_cast<int64_t>(rows[i]) >> kColumnChunkShift;
      const int64_t lo = c << kColumnChunkShift;
      const int64_t chunk_end = lo + kColumnChunkSize;
      const int64_t hi = std::min(num_rows, chunk_end);
      ++local.chunks_total;
      const ChunkDecision d =
          pred.Classify(chunks[static_cast<size_t>(c)], hi - lo);
      if (d == ChunkDecision::kSkip) {
        ++local.chunks_skipped;
        i = static_cast<size_t>(
            std::lower_bound(rows.begin() + static_cast<std::ptrdiff_t>(i),
                             rows.end(), chunk_end,
                             [](int32_t a, int64_t b) { return a < b; }) -
            rows.begin());
        continue;
      }
      if (d == ChunkDecision::kAllMatch) {
        ++local.chunks_all_match;
        while (i < n && rows[i] < chunk_end) out_data[m++] = rows[i++];
        continue;
      }
      ++local.chunks_scanned;
      while (i < n && rows[i] < chunk_end) {
        const int32_t r = rows[i++];
        out_data[m] = r;
        m += static_cast<size_t>(pred.Test(r));
      }
    }
  }

  out.resize(m);
  if (stats) *stats = local;
  return out;
}

template <typename T>
std::vector<int32_t> DispatchNumeric(const Column& col, const T* data,
                                     const std::vector<int32_t>& rows,
                                     const FilterPlan& plan,
                                     FilterKernelStats* stats) {
  const uint8_t* valid = col.validity_data();
  const double t = plan.threshold;
  switch (plan.op) {
    case CompareOp::kGt:
      return ChunkedScan(col, rows, NumericPred<T, GtOp>{data, valid, t},
                         stats);
    case CompareOp::kGe:
      return ChunkedScan(col, rows, NumericPred<T, GeOp>{data, valid, t},
                         stats);
    case CompareOp::kLt:
      return ChunkedScan(col, rows, NumericPred<T, LtOp>{data, valid, t},
                         stats);
    case CompareOp::kLe:
      return ChunkedScan(col, rows, NumericPred<T, LeOp>{data, valid, t},
                         stats);
    case CompareOp::kEq:
      return ChunkedScan(col, rows, NumericPred<T, EqOp>{data, valid, t},
                         stats);
    default:
      return ChunkedScan(col, rows, NumericPred<T, NeqOp>{data, valid, t},
                         stats);
  }
}

}  // namespace

Result<std::vector<int32_t>> FilterRows(const Table& table,
                                        const std::vector<int32_t>& rows,
                                        int column, CompareOp op,
                                        const Value& term,
                                        FilterKernelStats* stats) {
  ATENA_ASSIGN_OR_RETURN(const FilterPlan plan,
                         PlanFilter(table, column, op, term));
  const Column& col = *table.column(column);
  if (stats) *stats = FilterKernelStats{};
  switch (plan.mode) {
    case FilterPlan::Mode::kNumeric:
      if (col.type() == DataType::kInt64) {
        return DispatchNumeric<int64_t>(col, col.int_data(), rows, plan,
                                        stats);
      }
      return DispatchNumeric<double>(col, col.double_data(), rows, plan,
                                     stats);
    case FilterPlan::Mode::kStringCode:
      if (plan.op == CompareOp::kEq) {
        if (plan.code < 0) {
          // Absent term matches nothing; every chunk is skipped outright.
          if (stats) {
            stats->chunks_total = col.num_chunks();
            stats->chunks_skipped = col.num_chunks();
          }
          return std::vector<int32_t>{};
        }
        return ChunkedScan(
            col, rows,
            CodeEqPred{col.code_data(), col.validity_data(), plan.code},
            stats);
      }
      return ChunkedScan(
          col, rows,
          CodeNeqPred{col.code_data(), col.validity_data(), plan.code}, stats);
    case FilterPlan::Mode::kSubstring: {
      // Evaluate the substring predicate once per dictionary entry;
      // dictionaries are tiny relative to row counts, so this turns a
      // per-row substring search into a per-row byte load.
      const int32_t dict = col.dictionary_size();
      std::vector<uint8_t> match(static_cast<size_t>(dict), 0);
      int32_t min_match = std::numeric_limits<int32_t>::max();
      int32_t max_match = -1;
      for (int32_t code = 0; code < dict; ++code) {
        const std::string& entry = col.DictionaryEntry(code);
        bool hit = false;
        switch (plan.op) {
          case CompareOp::kContains:
            hit = Contains(entry, *plan.needle);
            break;
          case CompareOp::kStartsWith:
            hit = StartsWith(entry, *plan.needle);
            break;
          default:
            hit = EndsWith(entry, *plan.needle);
            break;
        }
        match[static_cast<size_t>(code)] = hit ? 1 : 0;
        if (hit) {
          min_match = std::min(min_match, code);
          max_match = std::max(max_match, code);
        }
      }
      if (max_match < 0) {
        if (stats) {
          stats->chunks_total = col.num_chunks();
          stats->chunks_skipped = col.num_chunks();
        }
        return std::vector<int32_t>{};
      }
      return ChunkedScan(col, rows,
                         DictBitmapPred{col.code_data(), col.validity_data(),
                                        match.data(), min_match, max_match},
                         stats);
    }
  }
  return Status::Internal("FilterRows: unreachable");
}

// ---------------------------------------------------------------------------
// Group-by.
// ---------------------------------------------------------------------------

namespace {

Status ValidateGroupSpec(const Table& table, const GroupSpec& spec) {
  if (spec.group_columns.empty()) {
    return Status::InvalidArgument("GroupAggregate: no group columns");
  }
  for (int c : spec.group_columns) {
    if (c < 0 || c >= table.num_columns()) {
      return Status::OutOfRange("GroupAggregate: group column " +
                                std::to_string(c));
    }
  }
  const bool needs_agg_column = spec.agg != AggFunc::kCount;
  if (needs_agg_column) {
    if (spec.agg_column < 0 || spec.agg_column >= table.num_columns()) {
      return Status::OutOfRange("GroupAggregate: agg column " +
                                std::to_string(spec.agg_column));
    }
    if (!IsNumericType(table.column(spec.agg_column)->type())) {
      return Status::TypeMismatch(
          std::string(AggFuncName(spec.agg)) + " over non-numeric column '" +
          table.column(spec.agg_column)->name() + "'");
    }
  }
  return Status::OK();
}

void FillGroupHeader(const Table& table, const GroupSpec& spec,
                     GroupedResult* result) {
  result->spec = spec;
  for (int c : spec.group_columns) {
    result->key_names.push_back(table.column(c)->name());
  }
  if (spec.agg == AggFunc::kCount) {
    result->agg_name = "COUNT(*)";
  } else {
    result->agg_name = std::string(AggFuncName(spec.agg)) + "(" +
                       table.column(spec.agg_column)->name() + ")";
  }
}

/// Aggregation over the whole selection in row order. Visiting the
/// selection front to back feeds every group accumulator its members'
/// values in selection order — the floating-point sequence of the scalar
/// reference's per-group loop — while the agg column is read in one
/// sequential sweep. Serial by design: merging per-thread partial sums
/// would reassociate the adds and change SUM/AVG bits. `row_ids` holds one
/// id per selected row (dense slot or hashed group id); `id_to_group` maps
/// ids to output groups, -1 for ids no row holds.
template <typename IdT>
void Aggregate(const Column& agg_col, AggFunc agg,
               const std::vector<int32_t>& rows, bool identity,
               const std::vector<IdT>& row_ids,
               const std::vector<int32_t>& id_to_group,
               std::vector<Group>* groups) {
  const size_t n = rows.size();
  const uint8_t* valid = agg_col.validity_data();
  const int32_t* sel = rows.data();
  const IdT* ids = row_ids.data();
  const size_t id_space = id_to_group.size();

  std::vector<double> acc(
      id_space, agg == AggFunc::kMin
                    ? std::numeric_limits<double>::infinity()
                    : agg == AggFunc::kMax
                          ? -std::numeric_limits<double>::infinity()
                          : 0.0);
  std::vector<int64_t> cnt(id_space, 0);

  auto for_each = [&](auto&& update) {
    if (identity) {
      for (size_t i = 0; i < n; ++i) {
        if (valid[i]) update(ids[i], static_cast<int64_t>(i));
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (valid[sel[i]]) update(ids[i], static_cast<int64_t>(sel[i]));
      }
    }
  };
  auto drive = [&](const auto* data) {
    switch (agg) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        for_each([&](size_t g, int64_t r) {
          acc[g] += static_cast<double>(data[r]);
          ++cnt[g];
        });
        break;
      case AggFunc::kMin:
        for_each([&](size_t g, int64_t r) {
          acc[g] = std::min(acc[g], static_cast<double>(data[r]));
          ++cnt[g];
        });
        break;
      case AggFunc::kMax:
        for_each([&](size_t g, int64_t r) {
          acc[g] = std::max(acc[g], static_cast<double>(data[r]));
          ++cnt[g];
        });
        break;
      case AggFunc::kCount:
        break;  // handled by the caller, never reaches here
    }
  };
  if (agg_col.type() == DataType::kInt64) {
    drive(agg_col.int_data());
  } else {
    drive(agg_col.double_data());
  }

  for (size_t id = 0; id < id_space; ++id) {
    const int32_t gid = id_to_group[id];
    if (gid < 0) continue;
    Group& grp = (*groups)[static_cast<size_t>(gid)];
    grp.agg_valid = cnt[id] > 0;
    if (!grp.agg_valid) continue;
    grp.aggregate = agg == AggFunc::kAvg
                        ? acc[id] / static_cast<double>(cnt[id])
                        : acc[id];
  }
}

// Composite code keys (below) fit one uint64_t up to this code space; a
// larger space, like a key column that is not order-coded, keeps exact keys.
constexpr uint64_t kMaxCodeSpace = uint64_t{1} << 62;
// Code spaces up to this size are tallied by direct addressing; their slot
// ids fit uint16_t. The tally's cost grows with the space, a hashed table's
// with the selection, so a space past kMaxSlotsPerRow slots per selected
// row (a small filtered display under a large key) is hashed instead.
constexpr uint64_t kDenseSlotLimit = uint64_t{1} << 16;
constexpr uint64_t kMaxSlotsPerRow = 16;

/// Calls body(i, r) for the i-th selected row r. An identity selection's
/// row is the loop index itself (a size_t, so the loop stays affine and
/// vectorizes), not a selection load.
template <typename Body>
inline void ForEachSelected(const std::vector<int32_t>& rows, bool identity,
                            Body&& body) {
  const size_t n = rows.size();
  const int32_t* sel = rows.data();
  if (identity) {
    for (size_t i = 0; i < n; ++i) body(i, i);
  } else {
    for (size_t i = 0; i < n; ++i) body(i, sel[i]);
  }
}

/// Adds key column `col`'s digit times `stride` to each selected row's
/// composite key: the rank of the cell's code plus one, or 0 for a null
/// cell. Over order-coded key columns, the sum Σ_j digit_j × stride_j
/// (column 0 most significant, each stride the product of the later
/// columns' code counts plus one) orders rows exactly as ValueLess does,
/// column by column, nulls first, and two rows have equal sums exactly when
/// their key cells have equal cell keys and null flags.
template <typename KeyT>
void AddDigits(const Column& col, KeyT stride,
               const std::vector<int32_t>& rows, bool identity, KeyT* keys) {
  const int32_t* codes = col.code_data();
  const uint8_t* valid = col.validity_data();
  if (const int32_t* rank = col.rank_data()) {
    ForEachSelected(rows, identity, [&](size_t i, auto r) {
      keys[i] = static_cast<KeyT>(
          keys[i] + (valid[r] ? static_cast<KeyT>(rank[codes[r]] + 1) * stride
                              : KeyT{0}));
    });
  } else {
    ForEachSelected(rows, identity, [&](size_t i, auto r) {
      keys[i] = static_cast<KeyT>(
          keys[i] + (valid[r] ? static_cast<KeyT>(codes[r] + 1) * stride
                              : KeyT{0}));
    });
  }
}

/// Dense tally for code spaces up to 2^16: each selected row's slot is its
/// composite key, so the row→group map is direct addressing (no hashing),
/// and groups come out straight in key order with no sort. A single key
/// column keeps its own loop, slot = code + 1 (0 for null), with no rank
/// lookup per row; its slots are then visited in rank order. On return
/// `row_ids` holds each row's slot, resolved through `slot_to_group` (-1
/// for unoccupied slots) instead of a remap pass over the selection.
void DenseAssignGroups(const std::vector<const Column*>& key_cols,
                       const std::vector<uint64_t>& strides, uint64_t space,
                       const std::vector<int32_t>& rows, bool identity,
                       std::vector<uint16_t>* row_ids,
                       std::vector<Group>* groups,
                       std::vector<int32_t>* slot_to_group) {
  const size_t n = rows.size();
  row_ids->assign(n, 0);
  uint16_t* slot = row_ids->data();
  const bool single = key_cols.size() == 1;
  if (single) {
    const int32_t* codes = key_cols[0]->code_data();
    const uint8_t* valid = key_cols[0]->validity_data();
    ForEachSelected(rows, identity, [&](size_t i, auto r) {
      slot[i] = valid[r] ? static_cast<uint16_t>(codes[r] + 1) : 0;
    });
  } else {
    for (size_t j = 0; j < key_cols.size(); ++j) {
      AddDigits(*key_cols[j], static_cast<uint16_t>(strides[j]), rows,
                identity, slot);
    }
  }

  // Count rows per slot, noting each slot's latest row, then emit the
  // occupied slots in key order. A slot's count and row share one 8-byte
  // record, so the note adds a store to a line the count already holds (a
  // branch that kept only the first row cost ~50% on 1M rows).
  struct SlotTally {
    int32_t count = 0;
    int32_t row = 0;
  };
  std::vector<SlotTally> tally(space);
  ForEachSelected(rows, identity, [&](size_t i, auto r) {
    SlotTally& t = tally[slot[i]];
    ++t.count;
    t.row = static_cast<int32_t>(r);
  });
  slot_to_group->assign(space, -1);
  groups->reserve(static_cast<size_t>(
      std::count_if(tally.begin(), tally.end(),
                    [](const SlotTally& t) { return t.count > 0; })));
  const Column& lone = *key_cols[0];
  for (uint64_t i = 0; i < space; ++i) {
    // The slot of the i-th smallest key.
    const size_t s =
        single && i > 0
            ? static_cast<size_t>(
                  lone.CodeAtRank(static_cast<int32_t>(i - 1)) + 1)
            : static_cast<size_t>(i);
    const SlotTally& t = tally[s];
    if (t.count == 0) continue;
    (*slot_to_group)[s] = static_cast<int32_t>(groups->size());
    Group& g = groups->emplace_back();
    g.size = t.count;
    g.row = t.row;
  }
}

/// The hashed group table's key form for composite code keys the dense
/// tally does not take: one uint64_t per row (AddDigits), compared whole.
class CodeKeys {
 public:
  CodeKeys(const std::vector<const Column*>& key_cols,
           const std::vector<uint64_t>& strides,
           const std::vector<int32_t>& rows, bool identity)
      : row_keys_(rows.size(), 0) {
    for (size_t j = 0; j < key_cols.size(); ++j) {
      AddDigits(*key_cols[j], strides[j], rows, identity, row_keys_.data());
    }
  }

  uint64_t Hash(size_t i) const { return Mix64(row_keys_[i]); }
  bool Matches(int32_t group, size_t i) const {
    return group_keys_[static_cast<size_t>(group)] == row_keys_[i];
  }
  void Add(size_t i) { group_keys_.push_back(row_keys_[i]); }

  /// Group ids in key order. Distinct groups have distinct keys, so the
  /// order is unique.
  std::vector<int32_t> SortedIds() const {
    std::vector<std::pair<uint64_t, int32_t>> keyed(group_keys_.size());
    for (size_t g = 0; g < keyed.size(); ++g) {
      keyed[g] = {group_keys_[g], static_cast<int32_t>(g)};
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<int32_t> order(keyed.size());
    for (size_t pos = 0; pos < keyed.size(); ++pos) {
      order[pos] = keyed[pos].second;
    }
    return order;
  }

 private:
  std::vector<uint64_t> row_keys_;
  std::vector<uint64_t> group_keys_;
};

/// The hashed group table's key form for every key with a column that is
/// not order-coded, or a code space past 2^62: the k cell keys followed by
/// ⌈k/64⌉ null-mask words (bit j%64 of word j/64 set when key column j is
/// null). CellKey's null sentinel equals one non-null value's key, and the
/// mask is what keeps the two apart.
class ExactKeys {
 public:
  ExactKeys(const std::vector<const Column*>& key_cols,
            const std::vector<int32_t>& rows)
      : key_cols_(key_cols),
        rows_(rows),
        words_(key_cols.size() + (key_cols.size() + 63) / 64),
        row_key_(words_) {}

  /// Reads row i's exact key into the row buffer and hashes it.
  uint64_t Hash(size_t i) {
    const int32_t r = rows_[i];
    const size_t k = key_cols_.size();
    uint64_t hash = 0x9E3779B97F4A7C15ULL;
    uint64_t nulls = 0;
    for (size_t j = 0; j < k; ++j) {
      row_key_[j] = key_cols_[j]->CellKey(r);
      hash = HashCombine(hash, static_cast<uint64_t>(row_key_[j]));
      nulls |= uint64_t{key_cols_[j]->IsNull(r)} << (j % 64);
      if (j % 64 == 63 || j + 1 == k) {
        row_key_[k + j / 64] = static_cast<int64_t>(nulls);
        nulls = 0;
      }
    }
    return hash;
  }
  bool Matches(int32_t group, size_t /*i*/) const {
    return std::equal(row_key_.begin(), row_key_.end(),
                      keys_.begin() + static_cast<std::ptrdiff_t>(
                                          static_cast<size_t>(group) * words_));
  }
  void Add(size_t /*i*/) {
    keys_.insert(keys_.end(), row_key_.begin(), row_key_.end());
  }

  /// Group ids in key order. Each group's typed key is read off its exact
  /// key: per key column a null flag and the cell's Column::OrderKey. For
  /// every pair the comparator returns what ValueLess over the boxed keys,
  /// column by column, returns: nulls first and tied with each other, then
  /// `<` on the order keys. std::sort's moves depend only on its
  /// comparator's outcomes, so sorting the discovery order with it yields
  /// the permutation that sorting boxed keys with ValueLess does, ties
  /// included (±0.0, NaN, int64 values that round to one double).
  std::vector<int32_t> SortedIds() const {
    struct TypedKey {
      double order = 0.0;
      bool null = false;
    };
    const size_t k = key_cols_.size();
    const size_t num_groups = keys_.size() / words_;
    std::vector<TypedKey> typed(num_groups * k);
    for (size_t g = 0; g < num_groups; ++g) {
      const int64_t* key = keys_.data() + g * words_;
      for (size_t j = 0; j < k; ++j) {
        TypedKey& t = typed[g * k + j];
        t.null = (static_cast<uint64_t>(key[k + j / 64]) >> (j % 64)) & 1;
        if (!t.null) t.order = key_cols_[j]->OrderKey(key[j]);
      }
    }
    std::vector<int32_t> order(num_groups);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      const TypedKey* x = &typed[static_cast<size_t>(a) * k];
      const TypedKey* y = &typed[static_cast<size_t>(b) * k];
      for (size_t j = 0; j < k; ++j) {
        if (x[j].null != y[j].null) return x[j].null;
        if (x[j].order < y[j].order) return true;
        if (y[j].order < x[j].order) return false;
      }
      return false;
    });
    return order;
  }

 private:
  const std::vector<const Column*>& key_cols_;
  const std::vector<int32_t>& rows_;
  size_t words_;
  std::vector<int64_t> row_key_;  // the current row's exact key
  std::vector<int64_t> keys_;     // words_ per group, flat
};

/// One open-addressing table on the key form `Keys` (CodeKeys or
/// ExactKeys), filled in selection order, so group ids come out in
/// row-encounter order — the scalar reference's discovery order, which
/// fixes every tie-break of ExactKeys::SortedIds. A hash hit is confirmed
/// against the group's stored key, so hash collisions chain instead of
/// merging groups. `row_gid` receives each selected row's group id,
/// `counts` each group's member count and `first_rows` each group's first
/// member row.
template <typename Keys>
void HashAssignGroups(Keys* keys, const std::vector<int32_t>& rows,
                      std::vector<int32_t>* row_gid,
                      std::vector<int32_t>* counts,
                      std::vector<int32_t>* first_rows) {
  const size_t n = rows.size();
  size_t capacity = 64;
  size_t mask = capacity - 1;
  std::vector<int32_t> slot_group(capacity, -1);
  std::vector<uint64_t> slot_hash(capacity, 0);
  std::vector<uint64_t> group_hash;  // per group, for cheap rehashing
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

  row_gid->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t hash = keys->Hash(i);
    size_t pos = static_cast<size_t>(hash) & mask;
    int32_t group = -1;
    while (slot_group[pos] >= 0) {
      if (slot_hash[pos] == hash && keys->Matches(slot_group[pos], i)) {
        group = slot_group[pos];
        break;
      }
      pos = (pos + 1) & mask;
    }
    if (group < 0) {
      group = static_cast<int32_t>(group_hash.size());
      slot_group[pos] = group;
      slot_hash[pos] = hash;
      group_hash.push_back(hash);
      keys->Add(i);
      counts->push_back(0);
      first_rows->push_back(rows[i]);
      if (group_hash.size() * 4 > capacity * 3) grow();
    }
    ++(*counts)[static_cast<size_t>(group)];
    (*row_gid)[i] = group;
  }
}

/// Emits the hashed groups in key order (`order`, group ids by key);
/// `id_to_group` receives each group id's output position.
void EmitHashGroups(const std::vector<int32_t>& order,
                    const std::vector<int32_t>& counts,
                    const std::vector<int32_t>& first_rows,
                    std::vector<Group>* groups,
                    std::vector<int32_t>* id_to_group) {
  groups->resize(order.size());
  id_to_group->resize(order.size());
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const auto id = static_cast<size_t>(order[pos]);
    (*id_to_group)[id] = static_cast<int32_t>(pos);
    Group& g = (*groups)[pos];
    g.size = counts[id];
    g.row = first_rows[id];
  }
}

}  // namespace

Result<GroupedResult> GroupAggregate(const Table& table,
                                     const std::vector<int32_t>& rows,
                                     const GroupSpec& spec) {
  ATENA_RETURN_IF_ERROR(ValidateGroupSpec(table, spec));
  GroupedResult result;
  FillGroupHeader(table, spec, &result);

  const size_t n = rows.size();
  const int32_t* sel = rows.data();
  // Per-row ids live in one of two vectors, sized by whichever assigner
  // runs: the dense tally's slot space is capped at 2^16, so its slot ids
  // fit uint16_t — half the id traffic across the write, count and
  // aggregation passes — while the hashed table keeps int32 group ids.
  std::vector<uint16_t> slot_ids;
  std::vector<int32_t> row_gid;

  // An identity selection (the root display, and the benchmark regime)
  // lets the assigners and the aggregation sweep drop the selection
  // indirection entirely. The check runs blockwise: branch-free inner
  // loops that vectorize, early exit between blocks.
  bool identity = static_cast<int64_t>(n) == table.num_rows();
  {
    constexpr size_t kCheckBlock = 4096;
    size_t i = 0;
    while (i < n && identity) {
      const size_t end = std::min(n, i + kCheckBlock);
      int id = 1;
      for (; i < end; ++i) {
        id &= static_cast<int>(sel[i] == static_cast<int32_t>(i));
      }
      identity = id != 0;
    }
  }

  // The key's code space: the product of the key columns' code counts plus
  // one (the null digit), with each column's stride the product of the
  // later columns'. Over order-coded columns the composite code key is the
  // group key in ValueLess order (AddDigits); otherwise, or past 2^62, the
  // groups keep exact keys.
  std::vector<const Column*> key_cols;
  for (int c : spec.group_columns) key_cols.push_back(table.column(c).get());
  std::vector<uint64_t> strides(key_cols.size());
  uint64_t space = 1;
  bool coded = true;
  for (size_t j = key_cols.size(); j-- > 0;) {
    const uint64_t digits =
        static_cast<uint64_t>(key_cols[j]->num_codes()) + 1;
    if (!key_cols[j]->order_coded() || space > kMaxCodeSpace / digits) {
      coded = false;
      break;
    }
    strides[j] = space;
    space *= digits;
  }

  // Each assigner emits the groups in key order, with member counts and
  // member rows, and maps each per-row id (dense slot or hashed group id)
  // to its output group. Each is the only path for its input class.
  std::vector<int32_t> id_to_group;
  const bool dense = coded && space <= kDenseSlotLimit &&
                     space <= kMaxSlotsPerRow * std::max<uint64_t>(n, 1);
  if (dense) {
    DenseAssignGroups(key_cols, strides, space, rows, identity, &slot_ids,
                      &result.groups, &id_to_group);
  } else {
    std::vector<int32_t> counts;
    std::vector<int32_t> first_rows;
    if (coded) {
      CodeKeys keys(key_cols, strides, rows, identity);
      HashAssignGroups(&keys, rows, &row_gid, &counts, &first_rows);
      EmitHashGroups(keys.SortedIds(), counts, first_rows, &result.groups,
                     &id_to_group);
    } else {
      ExactKeys keys(key_cols, rows);
      HashAssignGroups(&keys, rows, &row_gid, &counts, &first_rows);
      EmitHashGroups(keys.SortedIds(), counts, first_rows, &result.groups,
                     &id_to_group);
    }
  }

  if (spec.agg == AggFunc::kCount) {
    for (Group& g : result.groups) {
      g.aggregate = static_cast<double>(g.size);
      g.agg_valid = true;
    }
  } else if (dense) {
    Aggregate(*table.column(spec.agg_column), spec.agg, rows, identity,
              slot_ids, id_to_group, &result.groups);
  } else {
    Aggregate(*table.column(spec.agg_column), spec.agg, rows, identity,
              row_gid, id_to_group, &result.groups);
  }
  return result;
}

}  // namespace atena
