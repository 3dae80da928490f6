#include "nn/optimizer.h"

#include <immintrin.h>

#include <cmath>

#include "common/logging.h"

namespace atena {
namespace {

struct AdamConstants {
  double b1 = 0.0, b2 = 0.0, bias1 = 0.0, bias2 = 0.0, lr = 0.0, eps = 0.0;
};

// The Adam update of elements [begin, end). AdamUpdateAvx2 below must
// evaluate exactly these expressions in exactly this order.
void AdamUpdate(const AdamConstants& c, size_t begin, size_t end, double* m,
                double* v, const double* g, double* w) {
  for (size_t i = begin; i < end; ++i) {
    m[i] = c.b1 * m[i] + (1.0 - c.b1) * g[i];
    v[i] = c.b2 * v[i] + (1.0 - c.b2) * g[i] * g[i];
    const double mhat = m[i] / c.bias1;
    const double vhat = v[i] / c.bias2;
    w[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

// AdamUpdate on four lanes; returns how many leading elements it updated
// (a multiple of 4). Every lane op is an IEEE mul, add, sub, div or sqrt —
// each correctly rounded, with no FMA under this target — applied in the
// scalar loop's order, so every lane equals the scalar result bit for bit.
__attribute__((target("avx2"))) size_t AdamUpdateAvx2(
    const AdamConstants& c, size_t n, double* m, double* v, const double* g,
    double* w) {
  const __m256d b1 = _mm256_set1_pd(c.b1);
  const __m256d b2 = _mm256_set1_pd(c.b2);
  const __m256d one_minus_b1 = _mm256_set1_pd(1.0 - c.b1);
  const __m256d one_minus_b2 = _mm256_set1_pd(1.0 - c.b2);
  const __m256d bias1 = _mm256_set1_pd(c.bias1);
  const __m256d bias2 = _mm256_set1_pd(c.bias2);
  const __m256d lr = _mm256_set1_pd(c.lr);
  const __m256d eps = _mm256_set1_pd(c.eps);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gi = _mm256_loadu_pd(g + i);
    const __m256d mi =
        _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                      _mm256_mul_pd(one_minus_b1, gi));
    const __m256d vi = _mm256_add_pd(
        _mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
        _mm256_mul_pd(_mm256_mul_pd(one_minus_b2, gi), gi));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bias1);
    const __m256d vhat = _mm256_div_pd(vi, bias2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(w + i, _mm256_sub_pd(_mm256_loadu_pd(w + i), step));
  }
  return i;
}

}  // namespace

void ZeroGradients(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) p->grad.Fill(0.0);
}

GradClipResult ClipGradientsByNorm(const std::vector<Parameter*>& params,
                                   double max_norm) {
  GradClipResult result;
  double sq = 0.0;
  for (Parameter* p : params) {
    for (double g : p->grad.data()) {
      if (!std::isfinite(g)) ++result.nonfinite_count;
      sq += g * g;
    }
  }
  result.pre_clip_norm = std::sqrt(sq);
  if (!std::isfinite(result.pre_clip_norm)) {
    // A single inf/NaN gradient would turn the scaled update into NaNs
    // across every weight; dropping the update entirely is the only safe
    // recovery.
    for (Parameter* p : params) p->grad.Fill(0.0);
    return result;
  }
  if (result.pre_clip_norm > max_norm && result.pre_clip_norm > 0.0) {
    const double scale = max_norm / result.pre_clip_norm;
    for (Parameter* p : params) {
      for (double& g : p->grad.data()) g *= scale;
    }
    result.clipped = true;
  }
  return result;
}

void Adam::SetState(int64_t step, std::vector<Matrix> m,
                    std::vector<Matrix> v) {
  ATENA_CHECK(step >= 0) << "Adam step count cannot be negative";
  ATENA_CHECK(m.size() == v.size())
      << "Adam moment vectors must be parallel: " << m.size() << " vs "
      << v.size();
  for (size_t k = 0; k < m.size(); ++k) {
    ATENA_CHECK(m[k].rows() == v[k].rows() && m[k].cols() == v[k].cols())
        << "Adam moment shape mismatch at index " << k << ": "
        << m[k].ShapeString() << " vs " << v[k].ShapeString();
  }
  step_ = step;
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::Step(const std::vector<Parameter*>& params) {
  if (m_.empty()) {
    for (Parameter* p : params) {
      m_.emplace_back(p->value.rows(), p->value.cols());
      v_.emplace_back(p->value.rows(), p->value.cols());
    }
  }
  ATENA_CHECK(m_.size() == params.size())
      << "Adam called with a different parameter list";
  for (size_t k = 0; k < params.size(); ++k) {
    ATENA_CHECK(m_[k].rows() == params[k]->value.rows() &&
                m_[k].cols() == params[k]->value.cols())
        << "Adam moment shape " << m_[k].ShapeString()
        << " does not match parameter " << params[k]->value.ShapeString();
  }
  ++step_;
  AdamConstants c;
  c.b1 = options_.beta1;
  c.b2 = options_.beta2;
  c.bias1 = 1.0 - std::pow(c.b1, static_cast<double>(step_));
  c.bias2 = 1.0 - std::pow(c.b2, static_cast<double>(step_));
  c.lr = options_.learning_rate;
  c.eps = options_.epsilon;
  const bool avx2 = UseAvx2Kernels();
  for (size_t k = 0; k < params.size(); ++k) {
    Parameter* p = params[k];
    const size_t n = p->value.size();
    double* m = m_[k].data().data();
    double* v = v_[k].data().data();
    const double* g = p->grad.data().data();
    double* w = p->value.data().data();
    const size_t done = avx2 ? AdamUpdateAvx2(c, n, m, v, g, w) : 0;
    AdamUpdate(c, done, n, m, v, g, w);
  }
}

}  // namespace atena
