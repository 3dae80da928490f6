#include "dataframe/describe.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dataframe/ops.h"
#include "dataframe/stats.h"

namespace atena {

Result<std::vector<int32_t>> SortRows(const Table& table,
                                      std::vector<int32_t> rows, int column,
                                      bool ascending) {
  if (column < 0 || column >= table.num_columns()) {
    return Status::OutOfRange("SortRows: column " + std::to_string(column));
  }
  const Column& col = *table.column(column);
  auto less = [&col](int32_t a, int32_t b) {
    const bool na = col.IsNull(a), nb = col.IsNull(b);
    if (na != nb) return na;  // nulls first
    if (na && nb) return false;
    if (col.type() == DataType::kString) {
      return col.GetString(a) < col.GetString(b);
    }
    return col.AsDoubleOrNan(a) < col.AsDoubleOrNan(b);
  };
  if (ascending) {
    std::stable_sort(rows.begin(), rows.end(), less);
  } else {
    std::stable_sort(rows.begin(), rows.end(),
                     [&less](int32_t a, int32_t b) { return less(b, a); });
  }
  return rows;
}

Result<std::vector<int32_t>> TopKRows(const Table& table,
                                      const std::vector<int32_t>& rows,
                                      int column, int k, bool largest) {
  if (column < 0 || column >= table.num_columns()) {
    return Status::OutOfRange("TopKRows: column " + std::to_string(column));
  }
  const Column& col = *table.column(column);
  if (col.type() == DataType::kString) {
    return Status::TypeMismatch("TopKRows over string column '" + col.name() +
                                "'");
  }
  std::vector<int32_t> candidates;
  candidates.reserve(rows.size());
  for (int32_t r : rows) {
    if (!col.IsNull(r)) candidates.push_back(r);
  }
  const size_t take = std::min<size_t>(static_cast<size_t>(std::max(0, k)),
                                       candidates.size());
  auto better = [&col, largest](int32_t a, int32_t b) {
    const double va = col.AsDoubleOrNan(a), vb = col.AsDoubleOrNan(b);
    if (va != vb) return largest ? va > vb : va < vb;
    return a < b;
  };
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<long>(take),
                    candidates.end(), better);
  candidates.resize(take);
  return candidates;
}

Result<TablePtr> DescribeTable(const Table& table) {
  ColumnBuilder name("column", DataType::kString);
  ColumnBuilder type("type", DataType::kString);
  ColumnBuilder count("count", DataType::kInt64);
  ColumnBuilder nulls("nulls", DataType::kInt64);
  ColumnBuilder distinct("distinct", DataType::kInt64);
  ColumnBuilder min_col("min", DataType::kFloat64);
  ColumnBuilder max_col("max", DataType::kFloat64);
  ColumnBuilder mean_col("mean", DataType::kFloat64);
  ColumnBuilder top("top_value", DataType::kString);
  ColumnBuilder top_count("top_count", DataType::kInt64);

  ATENA_ASSIGN_OR_RETURN(const std::vector<int32_t> rows, AllRows(table));
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = *table.column(c);
    ColumnStats stats = ComputeColumnStats(col, rows);
    ATENA_RETURN_IF_ERROR(name.AppendString(col.name()));
    ATENA_RETURN_IF_ERROR(type.AppendString(DataTypeName(col.type())));
    ATENA_RETURN_IF_ERROR(count.AppendInt(stats.count - stats.nulls));
    ATENA_RETURN_IF_ERROR(nulls.AppendInt(stats.nulls));
    ATENA_RETURN_IF_ERROR(distinct.AppendInt(stats.distinct));

    if (col.type() == DataType::kString) {
      min_col.AppendNull();
      max_col.AppendNull();
      mean_col.AppendNull();
    } else {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      double sum = 0.0;
      int64_t n = 0;
      for (int32_t r : rows) {
        if (col.IsNull(r)) continue;
        const double v = col.AsDoubleOrNan(r);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        sum += v;
        ++n;
      }
      if (n == 0) {
        min_col.AppendNull();
        max_col.AppendNull();
        mean_col.AppendNull();
      } else {
        ATENA_RETURN_IF_ERROR(min_col.AppendDouble(lo));
        ATENA_RETURN_IF_ERROR(max_col.AppendDouble(hi));
        ATENA_RETURN_IF_ERROR(
            mean_col.AppendDouble(sum / static_cast<double>(n)));
      }
    }

    auto tokens = TokenFrequencies(col, rows);
    if (tokens.empty()) {
      top.AppendNull();
      top_count.AppendNull();
    } else {
      ATENA_RETURN_IF_ERROR(
          top.AppendString(col.KeyValue(tokens[0].key).ToString()));
      ATENA_RETURN_IF_ERROR(top_count.AppendInt(tokens[0].count));
    }
  }

  std::vector<ColumnPtr> columns;
  for (ColumnBuilder* b : {&name, &type, &count, &nulls, &distinct, &min_col,
                           &max_col, &mean_col, &top, &top_count}) {
    columns.push_back(b->Finish());
  }
  return Table::Make(table.name() + "/describe", std::move(columns));
}

}  // namespace atena
