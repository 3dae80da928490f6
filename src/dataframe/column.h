#ifndef ATENA_DATAFRAME_COLUMN_H_
#define ATENA_DATAFRAME_COLUMN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dataframe/value.h"

namespace atena {

/// Rows per column chunk. Chunking is logical: cell storage stays one
/// contiguous array (so row ids keep addressing it directly and the
/// Table/RowSet interfaces are untouched), and chunk c summarizes rows
/// [c * kColumnChunkSize, (c + 1) * kColumnChunkSize). Must stay a power of
/// two — kernels derive chunk ids by shifting row ids.
constexpr int64_t kColumnChunkSize = 4096;
constexpr int kColumnChunkShift = 12;
static_assert(kColumnChunkSize == int64_t{1} << kColumnChunkShift);

/// Zone map of one column chunk, computed once when the column is built.
/// Filter kernels consult it to skip chunks that cannot match a predicate
/// (or to emit whole chunks that provably match without testing rows).
struct ColumnChunkStats {
  /// Min/max over the chunk's non-null cells *as doubles* — the exact
  /// numeric view predicate rows are compared under (AsDoubleOrNan), so
  /// zone-map conclusions are consistent with per-row comparisons even for
  /// int64 values beyond double's integer range. Ignores NaN cells (see
  /// nan_count). +inf/-inf when the chunk has no non-null numeric cell.
  double min = 0.0;
  double max = 0.0;
  /// Exact integer bounds for int64 columns (feed the filter's exact-integer
  /// scan, which must not round). INT64_MAX/INT64_MIN when empty.
  int64_t min_int = 0;
  int64_t max_int = 0;
  /// Dictionary-code bounds for string columns. INT32_MAX/-1 when the
  /// chunk has no non-null string cell.
  int32_t min_code = 0;
  int32_t max_code = 0;
  /// Null cells in the chunk; == chunk length means the chunk never
  /// matches any predicate.
  int32_t null_count = 0;
  /// Non-null NaN cells (float columns only). NaN escapes min/max, so an
  /// "every row matches" zone-map proof additionally requires nan_count==0.
  int32_t nan_count = 0;
};

/// Immutable typed column. Every cell carries a dense 32-bit code, one per
/// distinct non-null value: string columns are dictionary-encoded (the code
/// indexes a per-column dictionary, numbered in first-appearance order), and
/// int64/float64 columns number their distinct values in ascending order
/// when the column is built. Counting passes and group-bys run on the codes
/// (CodeKey maps one back to its cell key). Nulls are tracked in a validity
/// vector.
///
/// Columns are built once via ColumnBuilder and then shared (shared_ptr)
/// between tables/views; they are never mutated after construction. Building
/// also materializes per-chunk zone maps (see ColumnChunkStats), which
/// FilterRows (dataframe/ops.h) uses for chunk skipping, the order of the
/// codes (CodeRank, CodeAtRank; a string column's is its dictionary's
/// lexicographic order), which GroupAggregate and TokenFrequencies sort keys
/// by, and the column's distinct count.
class Column {
 public:
  DataType type() const { return type_; }
  int64_t length() const { return static_cast<int64_t>(validity_.size()); }
  const std::string& name() const { return name_; }

  bool IsNull(int64_t row) const { return !validity_[row]; }
  int64_t null_count() const { return null_count_; }

  /// Typed accessors; calling the wrong one for the column type is a
  /// programmer error (checked in debug via assert-like behavior of vector).
  int64_t GetInt(int64_t row) const { return ints_[row]; }
  double GetDouble(int64_t row) const { return doubles_[row]; }
  std::string_view GetString(int64_t row) const {
    return dictionary_[codes_[row]];
  }
  /// Code of a cell (meaningless for null cells).
  int32_t GetCode(int64_t row) const { return codes_[row]; }
  /// Number of codes: the dictionary size of a string column (which may
  /// hold one entry, "", that only null cells carry), the distinct non-null
  /// count of a numeric column.
  int32_t num_codes() const {
    return type_ == DataType::kString
               ? static_cast<int32_t>(dictionary_.size())
               : static_cast<int32_t>(code_keys_.size());
  }
  /// The CellKey of the non-null cells coded `code`.
  int64_t CodeKey(int32_t code) const {
    return type_ == DataType::kString ? code : code_keys_[code];
  }
  /// Distinct non-null cell keys over all rows.
  int64_t distinct_count() const { return distinct_count_; }
  /// True when the codes' order (CodeRank) is ValueLess order with no ties:
  /// two codes compare under CodeRank exactly as their values compare under
  /// ValueLess. Always true for strings. A numeric column is not order-coded
  /// when two of its distinct keys tie under ValueLess (KeysCanTie).
  bool order_coded() const { return order_coded_; }
  int32_t dictionary_size() const {
    return static_cast<int32_t>(dictionary_.size());
  }
  const std::string& DictionaryEntry(int32_t code) const {
    return dictionary_[code];
  }

  /// Generic cell accessor (boxes the value; avoid in hot loops).
  Value GetValue(int64_t row) const;

  /// Numeric view of a cell: the int/double value, or NaN for nulls and
  /// string cells. Lets aggregation kernels treat numeric columns uniformly.
  double AsDoubleOrNan(int64_t row) const;

  /// A canonical 64-bit key for grouping/histogramming a cell: dictionary
  /// code for strings, raw bits for doubles, the value for ints; nulls map
  /// to a sentinel. Two non-null cells have equal keys iff they are equal.
  /// The sentinel is also the key of one non-null value (int64
  /// INT64_MIN+1, or the double with bits 0x8000000000000001), so a caller
  /// that must keep nulls apart tests IsNull beside the key.
  int64_t CellKey(int64_t row) const;

  /// The value of the non-null cell whose CellKey is `cell_key` (the
  /// inverse of CellKey on non-null cells).
  Value KeyValue(int64_t cell_key) const;

  /// The place of the non-null cell whose CellKey is `cell_key` in
  /// ValueLess order (dataframe/ops.h), as a double: an int64 cast to
  /// double exactly as Value::ToDouble casts it, a double as stored, or a
  /// string's rank in the lexicographic (std::string operator<) order of
  /// the dictionary. Two non-null cells of one column compare under
  /// ValueLess exactly as their order keys compare under <, ties included:
  /// +0.0 and -0.0, NaN against anything, and int64 values beyond ±2^53
  /// that round to one double.
  double OrderKey(int64_t cell_key) const;

  /// The place of `code` in the ascending order of the codes' values: a
  /// string code's rank in the dictionary's lexicographic order, a numeric
  /// code itself (numeric codes are numbered in ascending order). Ranks and
  /// codes are ordered once, when the column is built.
  int32_t CodeRank(int32_t code) const {
    return type_ == DataType::kString ? code_rank_[code] : code;
  }
  /// The code at rank `rank` (the inverse of CodeRank).
  int32_t CodeAtRank(int32_t rank) const {
    return type_ == DataType::kString ? rank_code_[rank] : rank;
  }

  /// Looks up the dictionary code of `token`; returns -1 when absent.
  int32_t FindCode(std::string_view token) const;

  /// Number of kColumnChunkSize-row chunks (⌈length / kColumnChunkSize⌉).
  int64_t num_chunks() const {
    return (length() + kColumnChunkSize - 1) >> kColumnChunkShift;
  }
  /// Per-chunk zone maps, one entry per chunk (see ColumnChunkStats).
  const std::vector<ColumnChunkStats>& chunk_stats() const {
    return chunk_stats_;
  }

  /// Raw cell storage for kernels — contiguous across all chunks, indexed
  /// directly by row id. Only the array matching type() holds cells;
  /// validity_data()[r] != 0 ⇔ row r is non-null.
  const int64_t* int_data() const { return ints_.data(); }
  const double* double_data() const { return doubles_.data(); }
  const int32_t* code_data() const { return codes_.data(); }
  const uint8_t* validity_data() const { return validity_.data(); }
  /// CodeRank of every string code, indexed by code; nullptr for a numeric
  /// column, whose codes are their own ranks.
  const int32_t* rank_data() const {
    return type_ == DataType::kString ? code_rank_.data() : nullptr;
  }

 private:
  friend class ColumnBuilder;

  /// std::hash<std::string_view>, which hashes a std::string to the same
  /// value std::hash<std::string> does; transparent, so the dictionary is
  /// probed with a view and a string is built only on insert. Not
  /// noexcept: libstdc++ then keeps each node's hash cached, as it does
  /// for std::hash<std::string>.
  struct StringViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  Column() = default;

  std::string name_;
  DataType type_ = DataType::kInt64;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<int32_t> codes_;  // per row; 0 for null cells
  std::vector<int64_t> code_keys_;  // numeric: code → CellKey, ascending
  std::vector<std::string> dictionary_;
  std::unordered_map<std::string, int32_t, StringViewHash, std::equal_to<>>
      dictionary_index_;
  std::vector<int32_t> code_rank_;  // code → lexicographic rank
  std::vector<int32_t> rank_code_;  // lexicographic rank → code
  std::vector<uint8_t> validity_;
  std::vector<ColumnChunkStats> chunk_stats_;
  int64_t null_count_ = 0;
  int64_t distinct_count_ = 0;
  bool order_coded_ = true;
};

using ColumnPtr = std::shared_ptr<const Column>;

/// True when two of `keys` (distinct non-null cell keys of a column of
/// `type`) can tie under ValueLess (dataframe/ops.h): NaN ties with
/// everything, +0.0 with -0.0, and two int64 values beyond ±2^53 can round
/// to one double. Distinct strings never tie.
bool KeysCanTie(DataType type, const std::vector<int64_t>& keys);

/// Accumulates cells and produces an immutable Column. Append* calls must
/// match the declared type; mismatches return an error and leave the builder
/// unchanged.
class ColumnBuilder {
 public:
  ColumnBuilder(std::string name, DataType type);

  Status AppendInt(int64_t value);
  Status AppendDouble(double value);
  Status AppendString(std::string_view value);
  void AppendNull();
  /// Appends a boxed value (type-checked; ints are widened into float
  /// columns).
  Status AppendValue(const Value& value);

  int64_t length() const { return static_cast<int64_t>(column_->validity_.size()); }
  DataType type() const { return column_->type_; }

  /// Finalizes the column: codes numeric cells, ranks the codes, builds
  /// the zone maps and counts the distinct values. The builder is left
  /// empty and reusable.
  ColumnPtr Finish();

 private:
  int32_t InternString(std::string_view value);
  /// Codes the cells of a numeric column being finished.
  static void CodeNumericCells(Column* column);

  std::shared_ptr<Column> column_;
};

}  // namespace atena

#endif  // ATENA_DATAFRAME_COLUMN_H_
