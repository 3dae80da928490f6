#ifndef ATENA_EDA_OBSERVATION_H_
#define ATENA_EDA_OBSERVATION_H_

#include <vector>

#include "dataframe/stats.h"
#include "dataframe/table.h"
#include "eda/display.h"

namespace atena {

/// Encodes result displays into the fixed-size numeric vectors the paper's
/// MDP exposes to the agent (§4.1): per attribute, the values' entropy,
/// distinct count and null count (plus a grouped/aggregated flag), and three
/// global grouping features (group count, group-size mean and variance).
/// All features are normalized into [0,1] against the source table size so
/// networks see a stable input scale across datasets.
class ObservationEncoder {
 public:
  /// `history` is how many most-recent displays one observation
  /// concatenates (the paper uses the current display plus the two before
  /// it, i.e. 3).
  ObservationEncoder(TablePtr table, int history = 3);

  /// Dimension of one encoded display vector: 4*|Attr| + 3.
  int display_dim() const { return display_dim_; }
  /// Dimension of a full observation: history * display_dim.
  int observation_dim() const { return history_ * display_dim_; }
  int history() const { return history_; }

  /// Encodes a single display d_t into its compact structural summary d̂_t.
  /// `stats` holds the ColumnStats of every table column over the rows the
  /// features describe (EdaEnvironment::SelectionStats: the display's
  /// capped selection); the grouping features come from `display`.
  std::vector<double> EncodeDisplay(
      const Display& display, const std::vector<ColumnStats>& stats) const;

  /// Builds the agent observation from the chronological display-vector
  /// history (last element = current display). Missing history slots are
  /// zero vectors (paper §4.1). Layout: current display first, then t-1,
  /// then t-2.
  std::vector<double> EncodeObservation(
      const std::vector<std::vector<double>>& display_vectors) const;

 private:
  TablePtr table_;
  int history_;
  int display_dim_;
};

}  // namespace atena

#endif  // ATENA_EDA_OBSERVATION_H_
