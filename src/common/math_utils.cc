#include "common/math_utils.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace atena {

double Sigmoid(double x) {
  if (x >= 0) {
    double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  double z = std::exp(x);
  return z / (1.0 + z);
}

double ScaledSigmoid(double x, double center, double width) {
  return Sigmoid((x - center) / width);
}

double SigmoidBump(double x, double low_center, double low_width,
                   double high_center, double high_width) {
  return ScaledSigmoid(x, low_center, low_width) *
         (1.0 - ScaledSigmoid(x, high_center, high_width));
}

double Entropy(const std::vector<double>& counts) {
  double total = 0.0;
  for (double c : counts) {
    if (c > 0.0) total += c;
  }
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double c : counts) {
    if (c <= 0.0) continue;
    double p = c / total;
    h -= p * std::log(p);
  }
  return h;
}

double NormalizedEntropy(const std::vector<double>& counts) {
  size_t support = 0;
  for (double c : counts) {
    if (c > 0.0) ++support;
  }
  if (support <= 1) return 0.0;
  return Entropy(counts) / std::log(static_cast<double>(support));
}

double SquaredEuclideanDistanceBounded(const std::vector<double>& a,
                                       const std::vector<double>& b,
                                       double bound) {
  return SquaredEuclideanDistanceBounded(a.data(), a.size(), b.data(),
                                         b.size(), bound);
}

double SquaredEuclideanDistanceBounded(const double* a, size_t a_size,
                                       const double* b, size_t b_size,
                                       double bound) {
  // Four independent accumulators (lanes striped over positions i%4) break
  // the serial sum += d*d dependency chain, and the bound check runs once
  // per 8-element block rather than per element — the below-bound case
  // runs at full pipeline throughput while the exceeded-bound case still
  // breaks out early. The accumulation order is fixed and deterministic
  // (lanes combined as ((s0+s1)+s2)+s3 at every checkpoint and at the
  // end), and every partial checkpoint value is a sum of a subset of the
  // non-negative terms, so checkpoints are non-decreasing and an early
  // break can never discard a candidate whose full sum is <= bound; any
  // result <= bound is the exact full sum.
  constexpr size_t kBlock = 8;
  size_t n = std::min(a_size, b_size);
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  while (i + kBlock <= n) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    const double d4 = a[i + 4] - b[i + 4];
    const double d5 = a[i + 5] - b[i + 5];
    const double d6 = a[i + 6] - b[i + 6];
    const double d7 = a[i + 7] - b[i + 7];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
    s0 += d4 * d4;
    s1 += d5 * d5;
    s2 += d6 * d6;
    s3 += d7 * d7;
    i += kBlock;
    if (((s0 + s1) + s2) + s3 > bound) return ((s0 + s1) + s2) + s3;
  }
  for (size_t lane = 0; i < n; ++i, ++lane) {
    const double d = a[i] - b[i];
    switch (lane & 3) {
      case 0: s0 += d * d; break;
      case 1: s1 += d * d; break;
      case 2: s2 += d * d; break;
      default: s3 += d * d; break;
    }
  }
  double sum = ((s0 + s1) + s2) + s3;
  if (sum > bound) return sum;
  for (i = n; i < a_size; ++i) {
    sum += a[i] * a[i];
    if (sum > bound) return sum;
  }
  for (i = n; i < b_size; ++i) {
    sum += b[i] * b[i];
    if (sum > bound) return sum;
  }
  return sum;
}

MeanVar ComputeMeanVar(const std::vector<double>& values) {
  MeanVar out;
  if (values.empty()) return out;
  // Welford's online algorithm.
  double mean = 0.0, m2 = 0.0;
  size_t count = 0;
  for (double v : values) {
    ++count;
    double delta = v - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (v - mean);
  }
  out.mean = mean;
  out.variance = m2 / static_cast<double>(count);
  return out;
}

double Clamp(double x, double lo, double hi) {
  return std::min(hi, std::max(lo, x));
}

double Log1pNormalize(double x, double scale) {
  if (x <= 0.0 || scale <= 0.0) return 0.0;
  return Clamp(std::log1p(x) / std::log1p(scale), 0.0, 1.0);
}

}  // namespace atena
