#ifndef ATENA_EDA_BINNING_H_
#define ATENA_EDA_BINNING_H_

#include <vector>

#include "common/random.h"
#include "dataframe/stats.h"

namespace atena {

/// Logarithmic frequency binning of filter terms (paper §5).
///
/// Instead of one network output per dataset token, the agent picks one of
/// `num_bins` frequency ranges; a concrete token whose frequency falls in
/// that range is then sampled uniformly at random. Bin 0 holds the most
/// frequent tokens; each subsequent bin halves the frequency ceiling
/// (log-base-2 ranges, following the Zipfian token-frequency assumption via
/// logarithmic binning [31]). The last bin absorbs everything rarer.
class TermBinning {
 public:
  /// Builds the binning over a column's token frequency list.
  /// Precondition: `tokens` is sorted by descending count, as
  /// TokenFrequencies returns it. A token's bin then never decreases along
  /// the list, so each bin is one contiguous range of token indices and the
  /// binning stores only the range boundaries.
  TermBinning(const std::vector<TokenFreq>& tokens, int num_bins);

  int num_bins() const { return num_bins_; }

  /// Number of tokens assigned to `bin`.
  int BinSize(int bin) const { return bounds_[bin + 1] - bounds_[bin]; }

  /// Samples a token index for `bin`. When the requested bin is empty the
  /// nearest non-empty bin is used (so every bin choice maps to a concrete
  /// token as long as the column has any token). Returns -1 only when the
  /// column has no tokens at all.
  int SampleToken(int bin, Rng* rng) const;

 private:
  int num_bins_;
  // Bin b holds the token indices [bounds_[b], bounds_[b + 1]).
  std::vector<int> bounds_;
};

}  // namespace atena

#endif  // ATENA_EDA_BINNING_H_
