#ifndef ATENA_REWARD_DIVERSITY_H_
#define ATENA_REWARD_DIVERSITY_H_

#include "eda/reward_interface.h"

namespace atena {

/// Diversity reward (paper §4.2): the minimal Euclidean distance between
/// the current display vector d̂_t and the vectors of all previous displays
/// d̂_{t'}, t' < t, normalized by sqrt(vector dimension) so the value is
/// scale-free in [0, ~1]. Duplicated displays (e.g. after BACK or a no-op)
/// score exactly 0.
///
/// A flat running-min scan over squared distances with the bounded kernel
/// (SquaredEuclideanDistanceBounded), one sqrt at the end (DESIGN.md §14).
double DiversityReward(const RewardContext& context);

}  // namespace atena

#endif  // ATENA_REWARD_DIVERSITY_H_
