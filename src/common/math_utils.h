#ifndef ATENA_COMMON_MATH_UTILS_H_
#define ATENA_COMMON_MATH_UTILS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace atena {

/// Standard logistic sigmoid 1 / (1 + e^-x).
double Sigmoid(double x);

/// Sigmoid with configurable center and width: Sigmoid((x - center) / width).
/// `width` > 0 yields an increasing curve, `width` < 0 a decreasing one.
/// This is the paper's "normalized sigmoid function with a predefined width
/// and center" (Section 4.2, citing [26]).
double ScaledSigmoid(double x, double center, double width);

/// A smooth "bump": rises through `low_center` and falls through
/// `high_center`, ≈1 between them. Used for conciseness-style rewards that
/// favor moderate values (e.g. a group-by with a handful of groups).
double SigmoidBump(double x, double low_center, double low_width,
                   double high_center, double high_width);

/// Shannon entropy (natural log) of an unnormalized histogram. Zero-weight
/// entries are ignored; an empty or all-zero histogram has entropy 0.
double Entropy(const std::vector<double>& counts);

/// Entropy normalized to [0,1] by log(support size); 0 when support <= 1.
double NormalizedEntropy(const std::vector<double>& counts);

/// Kullback-Leibler divergence D(P || Q) between two discrete distributions
/// given as value->count maps over arbitrary integer keys. Both histograms
/// are smoothed additively (epsilon added to every key in the union of
/// supports) and normalized, so the divergence is always finite. Returns 0
/// for two empty histograms.
///
/// `Map` is a std::unordered_map<int64_t, double> on any allocator: the
/// reward's few-key maps, or the arena-backed histograms of
/// SelectionKlDivergence (dataframe/stats.h). The union map lives on p's
/// allocator and receives p's keys, then q's, in iteration order; the sum
/// runs in the union's iteration order. libstdc++'s buckets and iteration
/// order depend on neither the allocator nor the mapped type, so maps
/// built by the same inserts give the same bits.
template <typename Map>
double KlDivergence(const Map& p, const Map& q, double epsilon = 1e-4) {
  if (p.empty() && q.empty()) return 0.0;
  // Union of supports, with additive smoothing so Q never has a zero where P
  // is positive (the paper compares a filtered display against its parent,
  // whose supports can differ in both directions). Each union entry keeps
  // the key's P and Q counts (0 where absent).
  using Counts = std::pair<double, double>;
  using UnionAllocator =
      typename std::allocator_traits<typename Map::allocator_type>::
          template rebind_alloc<std::pair<const int64_t, Counts>>;
  std::unordered_map<int64_t, Counts, typename Map::hasher,
                     typename Map::key_equal, UnionAllocator>
      keys(UnionAllocator(p.get_allocator()));
  double p_total = 0.0, q_total = 0.0;
  for (const auto& [k, v] : p) {
    keys[k].first = v;
    p_total += v;
  }
  for (const auto& [k, v] : q) {
    keys[k].second = v;
    q_total += v;
  }
  const double n = static_cast<double>(keys.size());
  p_total += epsilon * n;
  q_total += epsilon * n;
  if (p_total <= 0.0 || q_total <= 0.0) return 0.0;
  double kl = 0.0;
  for (const auto& [k, counts] : keys) {
    (void)k;
    const double pp = (counts.first + epsilon) / p_total;
    const double qq = (counts.second + epsilon) / q_total;
    kl += pp * std::log(pp / qq);
  }
  return std::max(0.0, kl);
}

/// Squared Euclidean (L2) distance with an early exit, the one distance
/// kernel of the diversity reward and the notebook store. Mismatched tails
/// count as distance from zero — equivalent to zero-padding the shorter
/// vector — so vectors of different lengths live in one well-defined
/// metric space (pinned in tests/common_test.cc). The accumulation order
/// is fixed (four striped lanes over the shared prefix, combined
/// deterministically, then the a-tail then the b-tail). Returns the exact
/// squared distance when it is <= `bound`, otherwise some partial sum >
/// `bound` (the caller only compares against `bound`, so the exact value
/// of a rejected candidate is irrelevant). Because every term is >= 0 the
/// partial sums are non-decreasing, so the early exit can never discard a
/// candidate whose full distance is <= `bound`; an infinite bound always
/// yields the exact distance.
double SquaredEuclideanDistanceBounded(const std::vector<double>& a,
                                       const std::vector<double>& b,
                                       double bound);

/// Raw-buffer form of the bounded kernel, for callers that keep vectors in
/// a packed arena (the notebook store's centroids). The std::vector
/// overload delegates here — one kernel, bit-identical results.
double SquaredEuclideanDistanceBounded(const double* a, size_t a_size,
                                       const double* b, size_t b_size,
                                       double bound);

/// Numerically stable mean and (population) variance of `values`.
/// Returns {0, 0} for an empty input.
struct MeanVar {
  double mean = 0.0;
  double variance = 0.0;
};
MeanVar ComputeMeanVar(const std::vector<double>& values);

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

/// log(1 + x) normalization of a non-negative count into [0, 1), with a soft
/// scale: Log1pNormalize(x, s) = log1p(x) / log1p(s) clamped to [0, 1].
/// Used by the observation encoder for unbounded counts.
double Log1pNormalize(double x, double scale);

}  // namespace atena

#endif  // ATENA_COMMON_MATH_UTILS_H_
