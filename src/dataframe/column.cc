#include "dataframe/column.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/hashing.h"

namespace atena {

namespace {
// CellKey for null cells. It cannot collide with a dictionary code, but it
// is also the key of int64 INT64_MIN+1 and of the double with bits
// 0x8000000000000001 (-denorm_min); callers that key on it keep nulls apart
// with IsNull (GroupAggregate folds a null mask into its group key).
constexpr int64_t kNullCellKey = std::numeric_limits<int64_t>::min() + 1;

/// An unsigned image of a numeric cell key whose order is the order of the
/// values: an int64 with its sign bit flipped, a double in IEEE total order
/// (-NaN < -inf < ... < -0.0 < +0.0 < ... < +inf < NaN). Distinct keys have
/// distinct images.
uint64_t SortableImage(DataType type, int64_t key) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  const auto bits = static_cast<uint64_t>(key);
  if (type == DataType::kInt64) return bits ^ kSign;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}
}  // namespace

bool KeysCanTie(DataType type, const std::vector<int64_t>& keys) {
  constexpr int64_t kExactInt = int64_t{1} << 53;
  switch (type) {
    case DataType::kInt64:
      return std::any_of(keys.begin(), keys.end(), [](int64_t key) {
        return key > kExactInt || key < -kExactInt;
      });
    case DataType::kFloat64: {
      bool positive_zero = false;
      bool negative_zero = false;
      for (int64_t key : keys) {
        const double v = std::bit_cast<double>(static_cast<uint64_t>(key));
        if (std::isnan(v)) return true;
        if (v == 0.0) (std::signbit(v) ? negative_zero : positive_zero) = true;
      }
      return positive_zero && negative_zero;
    }
    case DataType::kString:
      return false;
  }
  return false;
}

Value Column::GetValue(int64_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[row]);
    case DataType::kFloat64:
      return Value(doubles_[row]);
    case DataType::kString:
      return Value(std::string(GetString(row)));
  }
  return Value::Null();
}

double Column::AsDoubleOrNan(int64_t row) const {
  if (IsNull(row)) return std::numeric_limits<double>::quiet_NaN();
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(ints_[row]);
    case DataType::kFloat64:
      return doubles_[row];
    case DataType::kString:
      return std::numeric_limits<double>::quiet_NaN();
  }
  return std::numeric_limits<double>::quiet_NaN();
}

int64_t Column::CellKey(int64_t row) const {
  if (IsNull(row)) return kNullCellKey;
  switch (type_) {
    case DataType::kInt64:
      return ints_[row];
    case DataType::kFloat64:
      return static_cast<int64_t>(std::bit_cast<uint64_t>(doubles_[row]));
    case DataType::kString:
      return codes_[row];
  }
  return kNullCellKey;
}

Value Column::KeyValue(int64_t cell_key) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(cell_key);
    case DataType::kFloat64:
      return Value(std::bit_cast<double>(static_cast<uint64_t>(cell_key)));
    case DataType::kString:
      return Value(dictionary_[static_cast<size_t>(cell_key)]);
  }
  return Value::Null();
}

double Column::OrderKey(int64_t cell_key) const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(cell_key);
    case DataType::kFloat64:
      return std::bit_cast<double>(static_cast<uint64_t>(cell_key));
    case DataType::kString:
      return static_cast<double>(code_rank_[static_cast<size_t>(cell_key)]);
  }
  return 0.0;
}

int32_t Column::FindCode(std::string_view token) const {
  auto it = dictionary_index_.find(token);
  return it == dictionary_index_.end() ? -1 : it->second;
}

ColumnBuilder::ColumnBuilder(std::string name, DataType type)
    : column_(std::shared_ptr<Column>(new Column())) {
  column_->name_ = std::move(name);
  column_->type_ = type;
}

Status ColumnBuilder::AppendInt(int64_t value) {
  if (column_->type_ == DataType::kFloat64) {
    return AppendDouble(static_cast<double>(value));
  }
  if (column_->type_ != DataType::kInt64) {
    return Status::TypeMismatch("AppendInt on non-int column '" +
                                column_->name_ + "'");
  }
  column_->ints_.push_back(value);
  column_->validity_.push_back(1);
  return Status::OK();
}

Status ColumnBuilder::AppendDouble(double value) {
  if (column_->type_ != DataType::kFloat64) {
    return Status::TypeMismatch("AppendDouble on non-float column '" +
                                column_->name_ + "'");
  }
  column_->doubles_.push_back(value);
  column_->validity_.push_back(1);
  return Status::OK();
}

Status ColumnBuilder::AppendString(std::string_view value) {
  if (column_->type_ != DataType::kString) {
    return Status::TypeMismatch("AppendString on non-string column '" +
                                column_->name_ + "'");
  }
  column_->codes_.push_back(InternString(value));
  column_->validity_.push_back(1);
  return Status::OK();
}

void ColumnBuilder::AppendNull() {
  switch (column_->type_) {
    case DataType::kInt64:
      column_->ints_.push_back(0);
      break;
    case DataType::kFloat64:
      column_->doubles_.push_back(0.0);
      break;
    case DataType::kString:
      column_->codes_.push_back(0);
      // Null string cells still need a valid code; ensure slot 0 exists.
      if (column_->dictionary_.empty()) InternString("");
      break;
  }
  column_->validity_.push_back(0);
  ++column_->null_count_;
}

Status ColumnBuilder::AppendValue(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return Status::OK();
  }
  if (value.is_int()) return AppendInt(value.as_int());
  if (value.is_double()) return AppendDouble(value.as_double());
  return AppendString(value.as_string());
}

int32_t ColumnBuilder::InternString(std::string_view value) {
  auto it = column_->dictionary_index_.find(value);
  if (it != column_->dictionary_index_.end()) return it->second;
  int32_t code = static_cast<int32_t>(column_->dictionary_.size());
  column_->dictionary_.emplace_back(value);
  column_->dictionary_index_.emplace(std::string(value), code);
  return code;
}

void ColumnBuilder::CodeNumericCells(Column* column) {
  const DataType type = column->type_;
  const size_t n = column->validity_.size();
  const uint8_t* valid = column->validity_.data();
  std::vector<int32_t>& codes = column->codes_;
  codes.assign(n, 0);

  // One pass numbers the distinct cell keys in first-appearance order
  // (ids). While each new key exceeds the one before (a time or id column
  // in row order), a row is numbered by comparing its key with the last
  // one. The first row that breaks that order starts an open-addressing
  // table (load at most 1/2) over the keys seen so far, and the rest of
  // the column is numbered through it.
  std::vector<int64_t> keys;
  std::vector<int32_t> table;  // id per slot, -1 when empty
  size_t mask = 0;
  uint64_t last = 0;  // SortableImage of keys.back()
  auto rehash = [&](size_t capacity) {
    table.assign(capacity, -1);
    mask = capacity - 1;
    for (size_t id = 0; id < keys.size(); ++id) {
      size_t pos = Mix64(static_cast<uint64_t>(keys[id])) & mask;
      while (table[pos] >= 0) pos = (pos + 1) & mask;
      table[pos] = static_cast<int32_t>(id);
    }
  };
  auto number = [&](auto key_of) {
    for (size_t r = 0; r < n; ++r) {
      if (!valid[r]) continue;
      const int64_t key = key_of(r);
      if (table.empty()) {
        const uint64_t image = SortableImage(type, key);
        if (keys.empty() || image > last) {
          last = image;
          codes[r] = static_cast<int32_t>(keys.size());
          keys.push_back(key);
          continue;
        }
        if (image == last) {
          codes[r] = static_cast<int32_t>(keys.size() - 1);
          continue;
        }
        rehash(std::bit_ceil(std::max<size_t>(64, 4 * keys.size())));
      }
      size_t pos = Mix64(static_cast<uint64_t>(key)) & mask;
      while (table[pos] >= 0 &&
             keys[static_cast<size_t>(table[pos])] != key) {
        pos = (pos + 1) & mask;
      }
      if (table[pos] >= 0) {
        codes[r] = table[pos];
        continue;
      }
      codes[r] = static_cast<int32_t>(keys.size());
      table[pos] = codes[r];
      keys.push_back(key);
      if (2 * keys.size() > table.size()) rehash(2 * table.size());
    }
  };
  if (type == DataType::kInt64) {
    const int64_t* ints = column->ints_.data();
    number([ints](size_t r) { return ints[r]; });
  } else {
    const double* doubles = column->doubles_.data();
    number([doubles](size_t r) {
      return static_cast<int64_t>(std::bit_cast<uint64_t>(doubles[r]));
    });
  }
  const size_t distinct = keys.size();
  column->distinct_count_ = static_cast<int64_t>(distinct);
  column->order_coded_ = !KeysCanTie(type, keys);
  if (table.empty()) {
    // Keys first appeared in ascending order: the ids are the codes.
    column->code_keys_ = std::move(keys);
    return;
  }
  std::vector<int32_t>().swap(table);

  // A sort of the distinct keys turns ids into codes numbered in ascending
  // value order; one pass rewrites each row's id as its code.
  std::vector<std::pair<uint64_t, int32_t>> order(distinct);
  for (size_t id = 0; id < distinct; ++id) {
    order[id] = {SortableImage(type, keys[id]), static_cast<int32_t>(id)};
  }
  std::sort(order.begin(), order.end());
  std::vector<int32_t> id_code(distinct);
  column->code_keys_.resize(distinct);
  for (size_t code = 0; code < distinct; ++code) {
    const auto id = static_cast<size_t>(order[code].second);
    column->code_keys_[code] = keys[id];
    id_code[id] = static_cast<int32_t>(code);
  }
  for (size_t r = 0; r < n; ++r) {
    if (valid[r]) codes[r] = id_code[static_cast<size_t>(codes[r])];
  }
}

ColumnPtr ColumnBuilder::Finish() {
  auto finished = column_;
  column_ = std::shared_ptr<Column>(new Column());
  column_->name_ = finished->name_;
  column_->type_ = finished->type_;

  // Rank the dictionary once: group-by and token lists order string keys
  // by rank instead of comparing strings. Numeric cells get their codes.
  if (finished->type_ != DataType::kString) {
    CodeNumericCells(finished.get());
  } else {
    const std::vector<std::string>& dictionary = finished->dictionary_;
    std::vector<int32_t>& rank_code = finished->rank_code_;
    rank_code.resize(dictionary.size());
    std::iota(rank_code.begin(), rank_code.end(), 0);
    std::sort(rank_code.begin(), rank_code.end(),
              [&dictionary](int32_t a, int32_t b) {
                return dictionary[static_cast<size_t>(a)] <
                       dictionary[static_cast<size_t>(b)];
              });
    finished->code_rank_.resize(dictionary.size());
    for (size_t rank = 0; rank < rank_code.size(); ++rank) {
      finished->code_rank_[static_cast<size_t>(rank_code[rank])] =
          static_cast<int32_t>(rank);
    }
  }

  // Materialize the per-chunk zone maps. One pass over the cells at build
  // time buys chunk skipping on every later filter over the column.
  const int64_t n = finished->length();
  const int64_t num_chunks = (n + kColumnChunkSize - 1) >> kColumnChunkShift;
  finished->chunk_stats_.resize(static_cast<size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) {
    ColumnChunkStats& cs = finished->chunk_stats_[static_cast<size_t>(c)];
    cs.min = std::numeric_limits<double>::infinity();
    cs.max = -std::numeric_limits<double>::infinity();
    cs.min_int = std::numeric_limits<int64_t>::max();
    cs.max_int = std::numeric_limits<int64_t>::min();
    cs.min_code = std::numeric_limits<int32_t>::max();
    cs.max_code = -1;
    const int64_t lo = c << kColumnChunkShift;
    const int64_t hi = std::min(n, lo + kColumnChunkSize);
    switch (finished->type_) {
      case DataType::kInt64:
        for (int64_t r = lo; r < hi; ++r) {
          if (!finished->validity_[static_cast<size_t>(r)]) {
            ++cs.null_count;
            continue;
          }
          const int64_t v = finished->ints_[static_cast<size_t>(r)];
          cs.min_int = std::min(cs.min_int, v);
          cs.max_int = std::max(cs.max_int, v);
        }
        // int64→double is monotonic, so the cast bounds bound exactly the
        // cast values predicate kernels compare (AsDoubleOrNan semantics).
        if (cs.min_int <= cs.max_int) {
          cs.min = static_cast<double>(cs.min_int);
          cs.max = static_cast<double>(cs.max_int);
        }
        break;
      case DataType::kFloat64:
        for (int64_t r = lo; r < hi; ++r) {
          if (!finished->validity_[static_cast<size_t>(r)]) {
            ++cs.null_count;
            continue;
          }
          const double v = finished->doubles_[static_cast<size_t>(r)];
          if (std::isnan(v)) {
            ++cs.nan_count;
            continue;
          }
          if (v < cs.min) cs.min = v;
          if (v > cs.max) cs.max = v;
        }
        break;
      case DataType::kString:
        for (int64_t r = lo; r < hi; ++r) {
          if (!finished->validity_[static_cast<size_t>(r)]) {
            ++cs.null_count;
            continue;
          }
          const int32_t code = finished->codes_[static_cast<size_t>(r)];
          cs.min_code = std::min(cs.min_code, code);
          cs.max_code = std::max(cs.max_code, code);
        }
        break;
    }
  }

  // Every dictionary entry is the value of some non-null cell, except an
  // "" that AppendNull interned as the nulls' placeholder code 0 when no
  // non-null cell carries code 0.
  if (finished->type_ == DataType::kString) {
    const auto& chunks = finished->chunk_stats_;
    const bool placeholder =
        !finished->dictionary_.empty() &&
        std::none_of(chunks.begin(), chunks.end(),
                     [](const ColumnChunkStats& cs) {
                       return cs.min_code == 0;
                     });
    finished->distinct_count_ =
        static_cast<int64_t>(finished->dictionary_.size()) -
        (placeholder ? 1 : 0);
  }
  return finished;
}

}  // namespace atena
