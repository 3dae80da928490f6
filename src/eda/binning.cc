#include "eda/binning.h"

#include <cmath>
#include <cstdint>

namespace atena {

TermBinning::TermBinning(const std::vector<TokenFreq>& tokens, int num_bins)
    : num_bins_(num_bins), bounds_(static_cast<size_t>(num_bins) + 1, 0) {
  if (tokens.empty() || num_bins <= 0) return;
  const double max_count = static_cast<double>(tokens.front().count);
  // Tokens come sorted by count, so equal counts are adjacent and share a
  // bin: the bin is evaluated once per run of equal counts.
  for (size_t i = 0; i < tokens.size();) {
    const int64_t count = tokens[i].count;
    size_t end = i + 1;
    while (end < tokens.size() && tokens[end].count == count) ++end;
    const double c = static_cast<double>(count);
    // Bin index = how many halvings of max_count are needed to reach c.
    int bin = 0;
    if (c > 0 && c < max_count) {
      bin = static_cast<int>(std::floor(std::log2(max_count / c)));
    }
    if (bin >= num_bins_) bin = num_bins_ - 1;
    bounds_[static_cast<size_t>(bin) + 1] += static_cast<int>(end - i);
    i = end;
  }
  for (size_t b = 1; b < bounds_.size(); ++b) bounds_[b] += bounds_[b - 1];
}

int TermBinning::SampleToken(int bin, Rng* rng) const {
  if (num_bins_ <= 0) return -1;
  if (bin < 0) bin = 0;
  if (bin >= num_bins_) bin = num_bins_ - 1;
  // Walk outward from the requested bin to the nearest non-empty one.
  for (int delta = 0; delta < num_bins_; ++delta) {
    for (int candidate : {bin - delta, bin + delta}) {
      if (candidate < 0 || candidate >= num_bins_) continue;
      const int lo = bounds_[static_cast<size_t>(candidate)];
      const int hi = bounds_[static_cast<size_t>(candidate) + 1];
      if (lo < hi) {
        return lo + static_cast<int>(
                        rng->NextBounded(static_cast<uint64_t>(hi - lo)));
      }
    }
  }
  return -1;
}

}  // namespace atena
