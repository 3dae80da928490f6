#include "reward/diversity.h"

#include <cmath>
#include <limits>

#include "common/math_utils.h"
#include "eda/environment.h"

namespace atena {

double DiversityReward(const RewardContext& context) {
  const auto& vectors = context.env->display_vectors();
  if (vectors.size() < 2) return 0.0;
  const auto& current = vectors.back();
  if (current.empty()) return 0.0;
  // Running min over squared distances with early exit: the kernel's
  // partial sums are non-decreasing, so a candidate abandoned above the
  // running min can never be the minimum. sqrt is monotone and correctly
  // rounded, so one sqrt of the min equals the min of the roots.
  double min_squared = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i + 1 < vectors.size(); ++i) {
    const double sq =
        SquaredEuclideanDistanceBounded(current, vectors[i], min_squared);
    if (sq < min_squared) min_squared = sq;
  }
  return Clamp(std::sqrt(min_squared) /
                   std::sqrt(static_cast<double>(current.size())),
               0.0, 1.0);
}

}  // namespace atena
