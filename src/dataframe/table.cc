#include "dataframe/table.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/string_utils.h"
#include "dataframe/ops.h"

namespace atena {

Result<TablePtr> Table::Make(std::string name, std::vector<ColumnPtr> columns) {
  auto table = std::shared_ptr<Table>(new Table());
  table->name_ = std::move(name);
  std::unordered_set<std::string> seen;
  for (const auto& col : columns) {
    if (!col) return Status::InvalidArgument("null column");
    if (col->name().empty()) {
      return Status::InvalidArgument("column with empty name");
    }
    if (!seen.insert(col->name()).second) {
      return Status::AlreadyExists("duplicate column name '" + col->name() +
                                   "'");
    }
  }
  if (!columns.empty()) {
    table->num_rows_ = columns[0]->length();
    for (const auto& col : columns) {
      if (col->length() != table->num_rows_) {
        return Status::InvalidArgument(
            "column '" + col->name() + "' length mismatch: " +
            std::to_string(col->length()) + " vs " +
            std::to_string(table->num_rows_));
      }
    }
  }
  ATENA_RETURN_IF_ERROR(ValidateInt32RowRange(
      table->num_rows_, "Table::Make: table '" + table->name_ + "'"));
  table->columns_ = std::move(columns);
  table->distinct_ratios_.assign(table->columns_.size(), 0.0);
  if (table->num_rows_ > 0) {
    const double num_rows = static_cast<double>(table->num_rows_);
    for (size_t c = 0; c < table->columns_.size(); ++c) {
      table->distinct_ratios_[c] =
          static_cast<double>(table->columns_[c]->distinct_count()) /
          num_rows;
    }
  }
  return TablePtr(table);
}

int Table::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i]->name() == name) return static_cast<int>(i);
  }
  return -1;
}

Result<TablePtr> Table::Take(const std::vector<int32_t>& rows,
                             std::string new_name) const {
  std::vector<ColumnPtr> out_columns;
  out_columns.reserve(columns_.size());
  for (const auto& col : columns_) {
    ColumnBuilder builder(col->name(), col->type());
    for (int32_t row : rows) {
      if (row < 0 || row >= num_rows_) {
        return Status::OutOfRange("Take: row id " + std::to_string(row) +
                                  " out of [0," + std::to_string(num_rows_) +
                                  ")");
      }
      if (col->IsNull(row)) {
        builder.AppendNull();
        continue;
      }
      Status append_status;
      switch (col->type()) {
        case DataType::kInt64:
          append_status = builder.AppendInt(col->GetInt(row));
          break;
        case DataType::kFloat64:
          append_status = builder.AppendDouble(col->GetDouble(row));
          break;
        case DataType::kString:
          append_status = builder.AppendString(col->GetString(row));
          break;
      }
      ATENA_RETURN_IF_ERROR(append_status);
    }
    out_columns.push_back(builder.Finish());
  }
  return Table::Make(std::move(new_name), std::move(out_columns));
}

std::string Table::ToString(int64_t max_rows) const {
  const int64_t shown = std::min(max_rows, num_rows_);
  // Column widths: max of header and shown cell widths, capped for sanity.
  std::vector<size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c]->name().size();
  }
  for (int64_t r = 0; r < shown; ++r) {
    cells[r].resize(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      cells[r][c] = columns_[c]->GetValue(r).ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  for (size_t c = 0; c < widths.size(); ++c) widths[c] = std::min<size_t>(widths[c], 32);

  std::ostringstream os;
  os << name_ << " [" << num_rows_ << " rows x " << columns_.size()
     << " cols]\n";
  for (size_t c = 0; c < columns_.size(); ++c) {
    os << PadRight(columns_[c]->name(), widths[c]) << (c + 1 < columns_.size() ? "  " : "");
  }
  os << "\n";
  for (int64_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      os << PadRight(cells[r][c], widths[c]) << (c + 1 < columns_.size() ? "  " : "");
    }
    os << "\n";
  }
  if (shown < num_rows_) {
    os << "... (" << (num_rows_ - shown) << " more rows)\n";
  }
  return os.str();
}

void TableBuilder::AddColumn(std::string name, DataType type) {
  builders_.emplace_back(std::move(name), type);
}

Status TableBuilder::AppendRow(const std::vector<Value>& cells) {
  if (cells.size() != builders_.size()) {
    return Status::InvalidArgument(
        "AppendRow: expected " + std::to_string(builders_.size()) +
        " cells, got " + std::to_string(cells.size()));
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    ATENA_RETURN_IF_ERROR(builders_[i].AppendValue(cells[i]));
  }
  ++num_rows_;
  return Status::OK();
}

Result<TablePtr> TableBuilder::Finish() {
  std::vector<ColumnPtr> columns;
  columns.reserve(builders_.size());
  for (auto& b : builders_) columns.push_back(b.Finish());
  num_rows_ = 0;
  return Table::Make(name_, std::move(columns));
}

}  // namespace atena
