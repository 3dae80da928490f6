#include "dataframe/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace atena {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNeq:
      return "!=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kContains:
      return "contains";
    case CompareOp::kStartsWith:
      return "startswith";
    case CompareOp::kEndsWith:
      return "endswith";
  }
  return "?";
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

bool ValueLess(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_int() || v.is_double()) return 1;
    return 2;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;  // both null
  if (ra == 1) {
    double da = 0, db = 0;
    a.ToDouble(&da);
    b.ToDouble(&db);
    return da < db;
  }
  return a.as_string() < b.as_string();
}

std::vector<double> GroupedResult::GroupSizes() const {
  std::vector<double> sizes;
  sizes.reserve(groups.size());
  for (const auto& g : groups) {
    sizes.push_back(static_cast<double>(g.size));
  }
  return sizes;
}

Value GroupedResult::Key(const Table& source, size_t group, size_t j) const {
  return source.column(spec.group_columns[j])->GetValue(groups[group].row);
}

Result<TablePtr> GroupedResult::ToTable(const Table& source) const {
  std::vector<ColumnPtr> columns;
  for (size_t k = 0; k < key_names.size(); ++k) {
    DataType type = source.column(spec.group_columns[k])->type();
    ColumnBuilder builder(key_names[k], type);
    for (size_t g = 0; g < groups.size(); ++g) {
      ATENA_RETURN_IF_ERROR(builder.AppendValue(Key(source, g, k)));
    }
    columns.push_back(builder.Finish());
  }
  ColumnBuilder agg_builder(agg_name, DataType::kFloat64);
  for (const auto& g : groups) {
    if (g.agg_valid) {
      ATENA_RETURN_IF_ERROR(agg_builder.AppendDouble(g.aggregate));
    } else {
      agg_builder.AppendNull();
    }
  }
  columns.push_back(agg_builder.Finish());
  return Table::Make(source.name() + "/grouped", std::move(columns));
}

Status ValidateInt32RowRange(int64_t num_rows, const std::string& what) {
  if (num_rows > std::numeric_limits<int32_t>::max()) {
    return Status::OutOfRange(what + " exceeds int32 row-index range (" +
                              std::to_string(num_rows) + " rows)");
  }
  return Status::OK();
}

Result<std::vector<int32_t>> AllRowsForCount(int64_t num_rows) {
  ATENA_RETURN_IF_ERROR(ValidateInt32RowRange(num_rows, "AllRows: row count"));
  std::vector<int32_t> rows(static_cast<size_t>(num_rows));
  for (int64_t i = 0; i < num_rows; ++i) {
    rows[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  return rows;
}

Result<std::vector<int32_t>> AllRows(const Table& table) {
  ATENA_RETURN_IF_ERROR(ValidateInt32RowRange(
      table.num_rows(), "AllRows: table '" + table.name() + "'"));
  return AllRowsForCount(table.num_rows());
}

}  // namespace atena
