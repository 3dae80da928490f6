#include "support/reference_metrics.h"

#include <algorithm>

namespace atena {

double EdaSim(const std::vector<ViewSignature>& candidate,
              const std::vector<ViewSignature>& reference) {
  const size_t n = candidate.size(), m = reference.size();
  if (n == 0 || m == 0) return (n == m) ? 1.0 : 0.0;
  std::vector<std::vector<double>> dp(n + 1, std::vector<double>(m + 1, 0.0));
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const double match =
          dp[i - 1][j - 1] + ViewSimilarity(candidate[i - 1], reference[j - 1]);
      dp[i][j] = std::max({match, dp[i - 1][j], dp[i][j - 1]});
    }
  }
  return dp[n][m] / static_cast<double>(std::max(n, m));
}

}  // namespace atena
