#include "nn/matrix.h"

#include <immintrin.h>

#include <atomic>

#include "common/logging.h"

namespace atena {

Matrix Matrix::FromRow(const std::vector<double>& row) {
  Matrix m(1, static_cast<int>(row.size()));
  m.data_ = row;
  return m;
}

void Matrix::Fill(double value) {
  for (double& x : data_) x = value;
}

void Matrix::Resize(int rows, int cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
}

std::string Matrix::ShapeString() const {
  return "(" + std::to_string(rows_) + "x" + std::to_string(cols_) + ")";
}

// The multi-row kernels below process four rows of the left factor per
// traversal of the right one. Each output element still accumulates its
// products in plain k-order starting from +0.0, so results are
// bit-identical to the one-row-at-a-time path — but the independent
// accumulator chains hide FP-add latency (without -ffast-math the compiler
// may not reassociate a single dot product), which is where the batched
// passes get their throughput edge over per-sample calls. DESIGN.md §7
// gives the full bit-identity argument, including the zero skips.

namespace {
// Two-lane double vector; aligned(8) so loads/stores from arbitrary row
// offsets lower to unaligned SSE2 moves. Lane arithmetic is plain IEEE
// mulpd/addpd (baseline x86-64 has no FMA, and we never enable it), so
// every output element still accumulates in exact serial k-order.
typedef double v2df __attribute__((vector_size(16), aligned(8)));

inline v2df LoadV2(const double* p) {
  return *reinterpret_cast<const v2df*>(p);
}
inline void StoreV2(double* p, v2df v) { *reinterpret_cast<v2df*>(p) = v; }

// Four-lane variant for the AVX2 kernels below. Still no FMA: the target
// attribute enables only avx2, so `s += w * b` lowers to vmulpd+vaddpd,
// whose lanes are the same IEEE mul-then-add as the SSE2 and scalar
// paths. Every output element is one lane accumulating in serial k-order,
// so all kernels produce bit-identical results — which CPU runs the math
// can never change a trace, a checkpoint, or a training curve.
typedef double v4df __attribute__((vector_size(32), aligned(8)));

__attribute__((target("avx2"))) inline v4df LoadV4(const double* p) {
  return *reinterpret_cast<const v4df*>(p);
}
__attribute__((target("avx2"))) inline void StoreV4(double* p, v4df v) {
  *reinterpret_cast<v4df*>(p) = v;
}

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}

std::atomic<bool> force_portable{false};

// 4x8 register tile (8 ymm accumulators live across the whole k-loop):
// one traversal of b feeds four rows of output. Row r of the left factor
// is read as a_r[k * k_step], so the same tile computes a·b (k_step 1)
// and aᵀ·b (k_step = a.cols(), the rows of `a` visited in order).
__attribute__((target("avx2"))) void MatMul4RowsAvx2(
    const double* a0, const double* a1, const double* a2, const double* a3,
    int k_step, const Matrix& b, int k_len, double* o0, double* o1,
    double* o2, double* o3, int* j_done) {
  const int cols = b.cols();
  int j = 0;
  for (; j + 8 <= cols; j += 8) {
    v4df s0l{}, s0h{}, s1l{}, s1h{}, s2l{}, s2h{}, s3l{}, s3h{};
    for (int k = 0; k < k_len; ++k) {
      const size_t at = static_cast<size_t>(k) * k_step;
      const double v0 = a0[at], v1 = a1[at], v2 = a2[at], v3 = a3[at];
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
      const double* brow = b.RowPtr(k) + j;
      const v4df bl = LoadV4(brow), bh = LoadV4(brow + 4);
      const v4df w0{v0, v0, v0, v0}, w1{v1, v1, v1, v1};
      const v4df w2{v2, v2, v2, v2}, w3{v3, v3, v3, v3};
      s0l += w0 * bl;
      s0h += w0 * bh;
      s1l += w1 * bl;
      s1h += w1 * bh;
      s2l += w2 * bl;
      s2h += w2 * bh;
      s3l += w3 * bl;
      s3h += w3 * bh;
    }
    StoreV4(o0 + j, s0l);
    StoreV4(o0 + j + 4, s0h);
    StoreV4(o1 + j, s1l);
    StoreV4(o1 + j + 4, s1h);
    StoreV4(o2 + j, s2l);
    StoreV4(o2 + j + 4, s2h);
    StoreV4(o3 + j, s3l);
    StoreV4(o3 + j + 4, s3h);
  }
  *j_done = j;
}

// out (rows × b.cols()) = A · b, where A(i, k) = a[i * row_step +
// k * k_step]. MatMulInto and MatMulTransposeAInto are this one kernel
// with different strides.
void StridedMatMulInto(const double* a, int rows, int k_len, int row_step,
                       int k_step, const Matrix& b, Matrix* out) {
  out->Resize(rows, b.cols());
  out->Fill(0.0);
  const int cols = b.cols();
  const bool avx2 = UseAvx2Kernels();
  int i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* a0 = a + static_cast<size_t>(i) * row_step;
    const double* a1 = a0 + row_step;
    const double* a2 = a1 + row_step;
    const double* a3 = a2 + row_step;
    double* o0 = out->RowPtr(i);
    double* o1 = out->RowPtr(i + 1);
    double* o2 = out->RowPtr(i + 2);
    double* o3 = out->RowPtr(i + 3);
    // 4x4 register tile: the sixteen partial sums live in SIMD registers
    // across the whole k-loop, so the inner loop touches only a and b —
    // no per-k output traffic. Each element still sums over k in order.
    // On AVX2 hardware a 4x8 tile handles the bulk of the columns first
    // (runtime-dispatched, bit-identical lanes — see MatMul4RowsAvx2).
    int j = 0;
    if (avx2) {
      MatMul4RowsAvx2(a0, a1, a2, a3, k_step, b, k_len, o0, o1, o2, o3, &j);
    }
    for (; j + 4 <= cols; j += 4) {
      v2df s0l{0.0, 0.0}, s0h{0.0, 0.0};
      v2df s1l{0.0, 0.0}, s1h{0.0, 0.0};
      v2df s2l{0.0, 0.0}, s2h{0.0, 0.0};
      v2df s3l{0.0, 0.0}, s3h{0.0, 0.0};
      for (int k = 0; k < k_len; ++k) {
        const size_t at = static_cast<size_t>(k) * k_step;
        const double v0 = a0[at], v1 = a1[at], v2 = a2[at], v3 = a3[at];
        // Skipping all-zero columns (common with ReLU-masked gradients)
        // only ever skips exact ±0 contributions, results are unchanged.
        if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
        const double* brow = b.RowPtr(k) + j;
        const v2df bl = LoadV2(brow), bh = LoadV2(brow + 2);
        const v2df w0{v0, v0}, w1{v1, v1}, w2{v2, v2}, w3{v3, v3};
        s0l += w0 * bl;
        s0h += w0 * bh;
        s1l += w1 * bl;
        s1h += w1 * bh;
        s2l += w2 * bl;
        s2h += w2 * bh;
        s3l += w3 * bl;
        s3h += w3 * bh;
      }
      StoreV2(o0 + j, s0l);
      StoreV2(o0 + j + 2, s0h);
      StoreV2(o1 + j, s1l);
      StoreV2(o1 + j + 2, s1h);
      StoreV2(o2 + j, s2l);
      StoreV2(o2 + j + 2, s2h);
      StoreV2(o3 + j, s3l);
      StoreV2(o3 + j + 2, s3h);
    }
    for (; j < cols; ++j) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (int k = 0; k < k_len; ++k) {
        const size_t at = static_cast<size_t>(k) * k_step;
        const double v0 = a0[at], v1 = a1[at], v2 = a2[at], v3 = a3[at];
        if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
        const double bv = b.RowPtr(k)[j];
        s0 += v0 * bv;
        s1 += v1 * bv;
        s2 += v2 * bv;
        s3 += v3 * bv;
      }
      o0[j] = s0;
      o1[j] = s1;
      o2[j] = s2;
      o3[j] = s3;
    }
  }
  for (; i < rows; ++i) {
    const double* arow = a + static_cast<size_t>(i) * row_step;
    double* orow = out->RowPtr(i);
    for (int k = 0; k < k_len; ++k) {
      const double av = arow[static_cast<size_t>(k) * k_step];
      if (av == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (int j = 0; j < cols; ++j) {
        orow[j] += av * brow[j];
      }
    }
  }
}

// x·Wᵀ register tile: R rows of `a` (R <= 4) against four rows j..j+3 of
// `b`, one ymm accumulator per row whose lanes are the four outputs
// (i, j..j+3). Each 4x4 block of b (four b rows × k..k+3) is transposed
// in registers into four k-columns, so no call builds a Wᵀ copy; every
// lane then adds a[k]·b_j[k] in ascending k, exactly the scalar dot
// product's sequence. Returns the first column it did not handle.
template <int R>
__attribute__((target("avx2"))) int MatMulTransposeBRowsAvx2(
    const double* const* a, const Matrix& b, int k_len,
    double* const* out) {
  const int n = b.rows();
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const double* b0 = b.RowPtr(j);
    const double* b1 = b.RowPtr(j + 1);
    const double* b2 = b.RowPtr(j + 2);
    const double* b3 = b.RowPtr(j + 3);
    __m256d s[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) s[r] = _mm256_setzero_pd();
    int k = 0;
    for (; k + 4 <= k_len; k += 4) {
      const __m256d r0 = _mm256_loadu_pd(b0 + k);
      const __m256d r1 = _mm256_loadu_pd(b1 + k);
      const __m256d r2 = _mm256_loadu_pd(b2 + k);
      const __m256d r3 = _mm256_loadu_pd(b3 + k);
      const __m256d lo01 = _mm256_unpacklo_pd(r0, r1);  // k, k+2 of b0,b1
      const __m256d hi01 = _mm256_unpackhi_pd(r0, r1);  // k+1, k+3
      const __m256d lo23 = _mm256_unpacklo_pd(r2, r3);
      const __m256d hi23 = _mm256_unpackhi_pd(r2, r3);
      const __m256d c[4] = {_mm256_permute2f128_pd(lo01, lo23, 0x20),
                            _mm256_permute2f128_pd(hi01, hi23, 0x20),
                            _mm256_permute2f128_pd(lo01, lo23, 0x31),
                            _mm256_permute2f128_pd(hi01, hi23, 0x31)};
#pragma GCC unroll 4
      for (int kk = 0; kk < 4; ++kk) {
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
          s[r] = _mm256_add_pd(
              s[r], _mm256_mul_pd(_mm256_broadcast_sd(a[r] + k + kk), c[kk]));
        }
      }
    }
    for (; k < k_len; ++k) {
      const __m256d c = _mm256_set_pd(b3[k], b2[k], b1[k], b0[k]);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        s[r] = _mm256_add_pd(s[r],
                             _mm256_mul_pd(_mm256_broadcast_sd(a[r] + k), c));
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) _mm256_storeu_pd(out[r] + j, s[r]);
  }
  return j;
}
}  // namespace

bool UseAvx2Kernels() {
  return CpuHasAvx2() && !force_portable.load(std::memory_order_relaxed);
}

void ForcePortableKernelsForTesting(bool force) {
  force_portable.store(force, std::memory_order_relaxed);
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  ATENA_CHECK(a.cols() == b.rows())
      << "MatMul shape mismatch " << a.ShapeString() << " * "
      << b.ShapeString();
  StridedMatMulInto(a.data().data(), a.rows(), a.cols(), a.cols(), 1, b, out);
}

void MatMulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* out) {
  ATENA_CHECK(a.rows() == b.rows())
      << "MatMulTransposeA shape mismatch " << a.ShapeString() << "^T * "
      << b.ShapeString();
  // Output row i is column i of `a`; the k-loop walks the rows of `a` and
  // `b` (the batch) in ascending order, the lanes run along b's columns.
  StridedMatMulInto(a.data().data(), a.cols(), a.rows(), 1, a.cols(), b, out);
}

void MatMulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* out) {
  ATENA_CHECK(a.cols() == b.cols())
      << "MatMulTransposeB shape mismatch " << a.ShapeString() << " * "
      << b.ShapeString() << "^T";
  out->Resize(a.rows(), b.rows());
  const int k_len = a.cols();
  const bool avx2 = UseAvx2Kernels();
  int i = 0;
  for (; i + 4 <= a.rows(); i += 4) {
    const double* const arows[4] = {a.RowPtr(i), a.RowPtr(i + 1),
                                    a.RowPtr(i + 2), a.RowPtr(i + 3)};
    double* const orows[4] = {out->RowPtr(i), out->RowPtr(i + 1),
                              out->RowPtr(i + 2), out->RowPtr(i + 3)};
    int j = avx2 ? MatMulTransposeBRowsAvx2<4>(arows, b, k_len, orows) : 0;
    for (; j < b.rows(); ++j) {
      const double* brow = b.RowPtr(j);
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (int k = 0; k < k_len; ++k) {
        const double bv = brow[k];
        acc0 += arows[0][k] * bv;
        acc1 += arows[1][k] * bv;
        acc2 += arows[2][k] * bv;
        acc3 += arows[3][k] * bv;
      }
      orows[0][j] = acc0;
      orows[1][j] = acc1;
      orows[2][j] = acc2;
      orows[3][j] = acc3;
    }
  }
  for (; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out->RowPtr(i);
    int j = avx2 ? MatMulTransposeBRowsAvx2<1>(&arow, b, k_len, &orow) : 0;
    for (; j < b.rows(); ++j) {
      const double* brow = b.RowPtr(j);
      double acc = 0.0;
      for (int k = 0; k < k_len; ++k) acc += arow[k] * brow[k];
      orow[j] = acc;
    }
  }
}

void TransposeInto(const Matrix& m, Matrix* out) {
  out->Resize(m.cols(), m.rows());
  for (int i = 0; i < m.rows(); ++i) {
    const double* row = m.RowPtr(i);
    for (int j = 0; j < m.cols(); ++j) {
      (*out)(j, i) = row[j];
    }
  }
}

void AddRowVectorInPlace(Matrix* m, const Matrix& bias) {
  ATENA_CHECK(bias.rows() == 1 && bias.cols() == m->cols())
      << "bias shape " << bias.ShapeString() << " vs " << m->ShapeString();
  for (int i = 0; i < m->rows(); ++i) {
    double* row = m->RowPtr(i);
    const double* b = bias.RowPtr(0);
    for (int j = 0; j < m->cols(); ++j) row[j] += b[j];
  }
}

void ColumnSumsInto(const Matrix& m, Matrix* out) {
  out->Resize(1, m.cols());
  out->Fill(0.0);
  double* acc = out->RowPtr(0);
  for (int i = 0; i < m.rows(); ++i) {
    const double* row = m.RowPtr(i);
    for (int j = 0; j < m.cols(); ++j) acc[j] += row[j];
  }
}

void AxpyInPlace(Matrix* a, const Matrix& b, double scale) {
  ATENA_CHECK(a->size() == b.size())
      << "Axpy shape mismatch " << a->ShapeString() << " vs "
      << b.ShapeString();
  for (size_t i = 0; i < a->size(); ++i) {
    a->data()[i] += scale * b.data()[i];
  }
}

}  // namespace atena
