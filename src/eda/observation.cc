#include "eda/observation.h"

#include <algorithm>

#include "common/math_utils.h"

namespace atena {

ObservationEncoder::ObservationEncoder(TablePtr table, int history)
    : table_(std::move(table)),
      history_(history),
      display_dim_(4 * table_->num_columns() + 3) {}

std::vector<double> ObservationEncoder::EncodeDisplay(
    const Display& display, const std::vector<ColumnStats>& stats) const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(display_dim_));
  const double table_rows = static_cast<double>(table_->num_rows());

  for (int c = 0; c < table_->num_columns(); ++c) {
    const ColumnStats& column = stats[static_cast<size_t>(c)];
    const double selection = static_cast<double>(column.count);
    out.push_back(column.normalized_entropy);
    out.push_back(Log1pNormalize(static_cast<double>(column.distinct),
                                 table_rows));
    out.push_back(selection > 0
                      ? static_cast<double>(column.nulls) / selection
                      : 0.0);
    bool involved = std::find(display.group_columns.begin(),
                              display.group_columns.end(),
                              c) != display.group_columns.end() ||
                    (display.is_grouped() && display.agg != AggFunc::kCount &&
                     display.agg_column == c);
    out.push_back(involved ? 1.0 : 0.0);
  }

  if (display.grouped) {
    const auto sizes = display.grouped->GroupSizes();
    MeanVar mv = ComputeMeanVar(sizes);
    out.push_back(Log1pNormalize(static_cast<double>(sizes.size()),
                                 table_rows));
    out.push_back(table_rows > 0 ? Clamp(mv.mean / table_rows, 0.0, 1.0)
                                 : 0.0);
    out.push_back(Log1pNormalize(mv.variance, table_rows * table_rows));
  } else {
    out.push_back(0.0);
    out.push_back(0.0);
    out.push_back(0.0);
  }
  return out;
}

std::vector<double> ObservationEncoder::EncodeObservation(
    const std::vector<std::vector<double>>& display_vectors) const {
  std::vector<double> out(static_cast<size_t>(observation_dim()), 0.0);
  // Slot 0 = current display, slot 1 = previous, ... (paper: d̂_t ++ d̂_{t-1}
  // ++ d̂_{t-2}, zeros where history does not exist yet).
  const int available = static_cast<int>(display_vectors.size());
  for (int slot = 0; slot < history_ && slot < available; ++slot) {
    const auto& vec = display_vectors[static_cast<size_t>(available - 1 - slot)];
    std::copy(vec.begin(), vec.end(),
              out.begin() + static_cast<long>(slot) * display_dim_);
  }
  return out;
}

}  // namespace atena
