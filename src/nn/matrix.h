#ifndef ATENA_NN_MATRIX_H_
#define ATENA_NN_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

namespace atena {

/// Dense row-major matrix of doubles — the only tensor type the network
/// substrate needs (all ATENA networks are small MLPs; batches are rows).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), fill) {}

  static Matrix FromRow(const std::vector<double>& row);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(int r, int c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double* RowPtr(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const double* RowPtr(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  void Fill(double value);

  /// Reshapes to (rows × cols) without preserving element values. Existing
  /// capacity is reused, so workspace buffers resized to a recurring shape
  /// stop allocating after the first pass.
  void Resize(int rows, int cols);

  std::string ShapeString() const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

// The matrix products. Each resizes `out` and writes the product into it,
// reusing its buffer; shapes are checked fatally (programmer error). For
// finite inputs the results are bit-identical to a plain triple loop that
// sums each output element from +0.0 in ascending inner-index order
// (DESIGN.md §7).

/// out = a (r×k) * b (k×c).
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a (r×k) * bᵀ where b is (c×k), yielding (r×c).
void MatMulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = aᵀ * b where a is (r×k) and b is (r×c), yielding (k×c). Used for
/// weight gradients: dW = grad_outputᵀ · input.
void MatMulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* out);

/// True when the nn kernels (the matrix products above and Adam::Step) take
/// their AVX2 paths: the CPU supports AVX2 and no test has forced the
/// portable fallback. Both paths produce identical bits.
bool UseAvx2Kernels();
/// Test-only: with `force` true, the nn kernels run their portable
/// fallback loops even on an AVX2 host, so tests can check both paths.
/// Not meant to be flipped while kernels run on other threads.
void ForcePortableKernelsForTesting(bool force);

/// out = mᵀ, resizing `out` to (cols × rows) and reusing its buffer.
void TransposeInto(const Matrix& m, Matrix* out);

/// Adds `bias` (1×c) to every row of `m` in place.
void AddRowVectorInPlace(Matrix* m, const Matrix& bias);
/// Column sums of `m` into `out` as a (1×c) matrix, reusing its buffer.
void ColumnSumsInto(const Matrix& m, Matrix* out);
/// Element-wise a += scale * b.
void AxpyInPlace(Matrix* a, const Matrix& b, double scale);

}  // namespace atena

#endif  // ATENA_NN_MATRIX_H_
