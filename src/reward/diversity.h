#ifndef ATENA_REWARD_DIVERSITY_H_
#define ATENA_REWARD_DIVERSITY_H_

#include <vector>

#include "eda/environment.h"
#include "index/vector_index.h"

namespace atena {

/// What the diversity reward actually consumes, extracted from the
/// environment: the display history and, when the environment's
/// incremental per-session index covers that history exactly, the index
/// to route the min-distance query through. A null `index` (short
/// episodes below the activation threshold, index disabled by config, or
/// a caller that only has raw vectors) selects the scalar scan — results
/// are bit-identical either way, so the choice is purely a matter of
/// speed.
struct IndexedRewardContext {
  /// Chronological display vectors d̂_0..d̂_t; the last entry is the
  /// current display being scored.
  const std::vector<std::vector<double>>* vectors = nullptr;
  /// Index over exactly `vectors` (ids matching positions), or null.
  const VectorIndex* index = nullptr;
};

/// Builds the indexed view of a step: takes the environment's display
/// history and its display index when (and only when) the index is in
/// sync with the history.
IndexedRewardContext MakeIndexedRewardContext(const RewardContext& context);

/// Diversity reward (paper §4.2): the minimal Euclidean distance between
/// the current display vector d̂_t and the vectors of all previous displays
/// d̂_{t'}, t' < t, normalized by sqrt(vector dimension) so the value is
/// scale-free in [0, ~1]. Duplicated displays (e.g. after BACK or a no-op)
/// score exactly 0.
///
/// Routed through the environment's display index when available
/// (sub-linear in history length); otherwise a scalar scan. Both paths
/// return bit-identical values (property-enforced in tests/index_test.cc).
double DiversityReward(const RewardContext& context);
double DiversityReward(const IndexedRewardContext& context);

/// The production diversity path whenever no index covers the history:
/// the index is disabled, or the history is still below
/// EnvConfig::diversity_index_threshold (every training-length episode),
/// where the environment keeps it dormant. A flat running-min scan over
/// squared distances with early exit, one sqrt at the end.
/// Ignores `context.index`. The indexed path's exact re-check uses the
/// same squared-distance kernel, which is how the two paths stay
/// bit-identical (DESIGN.md §14).
double ScalarDiversityReward(const IndexedRewardContext& context);

}  // namespace atena

#endif  // ATENA_REWARD_DIVERSITY_H_
