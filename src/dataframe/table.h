#ifndef ATENA_DATAFRAME_TABLE_H_
#define ATENA_DATAFRAME_TABLE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dataframe/column.h"

namespace atena {

/// An immutable relational table: equal-length named columns. Tables are
/// shared by pointer between the EDA environment's displays; filtering
/// produces row-id selections over the same table rather than copies.
class Table {
 public:
  /// Builds a table from finished columns; all columns must have equal
  /// length and distinct, non-empty names, and the row count must fit the
  /// int32 row ids every selection uses (OutOfRange otherwise). Computes
  /// distinct_ratios() once.
  static Result<std::shared_ptr<const Table>> Make(
      std::string name, std::vector<ColumnPtr> columns);

  const std::string& name() const { return name_; }
  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  const ColumnPtr& column(int i) const { return columns_[i]; }
  const std::string& column_name(int i) const { return columns_[i]->name(); }

  /// Distinct non-null values of each column over all rows
  /// (Column::distinct_count), divided by the row count (0 for an empty
  /// table), in column order. The reward and the coherency rules use it to
  /// tell key-like and continuous columns (ratio near 1) from categorical
  /// ones.
  const std::vector<double>& distinct_ratios() const {
    return distinct_ratios_;
  }

  /// Index of the column named `name`, or -1 when absent.
  int FindColumn(std::string_view name) const;

  /// Materializes a new table containing the given rows (in order). Row ids
  /// outside [0, num_rows) are a programmer error.
  Result<std::shared_ptr<const Table>> Take(
      const std::vector<int32_t>& rows, std::string new_name) const;

  /// Renders up to `max_rows` rows as an aligned ASCII table (for examples
  /// and notebook output).
  std::string ToString(int64_t max_rows = 10) const;

 private:
  Table() = default;

  std::string name_;
  int64_t num_rows_ = 0;
  std::vector<ColumnPtr> columns_;
  std::vector<double> distinct_ratios_;
};

using TablePtr = std::shared_ptr<const Table>;

/// Row-oriented convenience builder used by dataset generators and tests:
/// declare the schema up front, then append rows of boxed values.
class TableBuilder {
 public:
  explicit TableBuilder(std::string table_name) : name_(std::move(table_name)) {}

  /// Declares a column; must be called before the first AppendRow.
  void AddColumn(std::string name, DataType type);

  /// Appends one row; `cells` must match the declared column count and
  /// types (nulls allowed anywhere).
  Status AppendRow(const std::vector<Value>& cells);

  int64_t num_rows() const { return num_rows_; }

  Result<TablePtr> Finish();

 private:
  std::string name_;
  std::vector<ColumnBuilder> builders_;
  int64_t num_rows_ = 0;
};

}  // namespace atena

#endif  // ATENA_DATAFRAME_TABLE_H_
