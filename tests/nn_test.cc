#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"

namespace atena {
namespace {

// --------------------------------------------------------------- Matrix

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_EQ(m.ShapeString(), "(2x3)");
}

TEST(MatrixTest, FromRow) {
  Matrix m = Matrix::FromRow({1, 2, 3});
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  Matrix c;
  MatMulInto(a, b, &c);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, TransposedProductsAgreeWithPlainMatMul) {
  Rng rng(3);
  Matrix a(3, 4), b(5, 4), c(3, 6);
  for (double& x : a.data()) x = rng.NextGaussian();
  for (double& x : b.data()) x = rng.NextGaussian();
  for (double& x : c.data()) x = rng.NextGaussian();

  // a * b^T via explicit transpose.
  Matrix bt(4, 5);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) bt(j, i) = b(i, j);
  }
  Matrix expected, got;
  MatMulInto(a, bt, &expected);
  MatMulTransposeBInto(a, b, &got);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-12);
  }

  // a^T * c via explicit transpose.
  Matrix at(4, 3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) at(j, i) = a(i, j);
  }
  Matrix expected2, got2;
  MatMulInto(at, c, &expected2);
  MatMulTransposeAInto(a, c, &got2);
  for (size_t i = 0; i < expected2.size(); ++i) {
    EXPECT_NEAR(got2.data()[i], expected2.data()[i], 1e-12);
  }
}

TEST(MatrixTest, ResizeReusesCapacityWithoutPreservingValues) {
  Matrix m(4, 4, 1.0);
  const double* buffer = m.data().data();
  m.Resize(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.data().data(), buffer);  // shrink never reallocates
}

TEST(MatrixTest, RowVectorAndColumnSums) {
  Matrix m(2, 3, 1.0);
  Matrix bias(1, 3);
  bias(0, 0) = 1;
  bias(0, 1) = 2;
  bias(0, 2) = 3;
  AddRowVectorInPlace(&m, bias);
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 4.0);
  Matrix sums;
  ColumnSumsInto(m, &sums);
  EXPECT_DOUBLE_EQ(sums(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sums(0, 2), 8.0);
}

TEST(MatrixTest, SoftmaxRangeNormalizes) {
  Matrix m(1, 5);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(0, 3) = 100;  // outside the range; untouched
  m(0, 4) = 100;
  SoftmaxRangeInPlace(&m, 0, 3);
  EXPECT_NEAR(m(0, 0) + m(0, 1) + m(0, 2), 1.0, 1e-12);
  EXPECT_GT(m(0, 2), m(0, 1));
  EXPECT_DOUBLE_EQ(m(0, 3), 100.0);
}

// ------------------------------------------------------- kernel oracles
//
// Every matrix-product kernel must equal, bit for bit, a plain triple loop
// that sums each output element from +0.0 in ascending inner-index order,
// on the AVX2 path and on the portable fallback alike. The oracles live
// only here.

Matrix OracleMatMul(const Matrix& a, const Matrix& b) {  // a·b
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

Matrix OracleMatMulTransposeB(const Matrix& a, const Matrix& b) {  // a·bᵀ
  Matrix out(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (int k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      out(i, j) = acc;
    }
  }
  return out;
}

Matrix OracleMatMulTransposeA(const Matrix& a, const Matrix& b) {  // aᵀ·b
  Matrix out(a.cols(), b.cols());
  for (int i = 0; i < a.cols(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int k = 0; k < a.rows(); ++k) acc += a(k, i) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

::testing::AssertionResult SameBits(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.ShapeString() << " vs " << want.ShapeString();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got.data()[i], &want.data()[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure() << "element " << i << ": "
                                           << got.data()[i] << " vs "
                                           << want.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Gaussian entries with exact zeros and −0.0 mixed in, then one whole
/// zero row and one whole zero column when the matrix has more than one —
/// the patterns ReLU masks leave in activations and their gradients.
Matrix TestFactor(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (double& x : m.data()) {
    const double u = rng->NextDouble();
    x = u < 0.2 ? 0.0 : (u < 0.3 ? -0.0 : rng->NextGaussian());
  }
  if (rows > 1) {
    const int r = static_cast<int>(rng->NextDouble() * rows);
    for (int c = 0; c < cols; ++c) m(r, c) = 0.0;
  }
  if (cols > 1) {
    const int c = static_cast<int>(rng->NextDouble() * cols);
    for (int r = 0; r < rows; ++r) m(r, c) = -0.0;
  }
  return m;
}

/// Runs every product kernel on one (rows, cols, inner) shape and compares
/// each against its oracle.
void ExpectKernelsMatchOracles(int rows, int cols, int inner, Rng* rng) {
  const std::string shape = std::to_string(rows) + "x" + std::to_string(cols) +
                            " inner " + std::to_string(inner);
  Matrix dirty(3, 5, 7.0);  // destinations are fully overwritten
  {
    const Matrix a = TestFactor(rows, inner, rng);
    const Matrix b = TestFactor(inner, cols, rng);
    const Matrix want = OracleMatMul(a, b);
    Matrix out = dirty;
    MatMulInto(a, b, &out);
    EXPECT_TRUE(SameBits(out, want)) << "MatMulInto " << shape;
  }
  {
    const Matrix a = TestFactor(rows, inner, rng);
    const Matrix b = TestFactor(cols, inner, rng);
    const Matrix want = OracleMatMulTransposeB(a, b);
    Matrix out = dirty;
    MatMulTransposeBInto(a, b, &out);
    EXPECT_TRUE(SameBits(out, want)) << "MatMulTransposeBInto " << shape;
  }
  {
    const Matrix a = TestFactor(inner, rows, rng);
    const Matrix b = TestFactor(inner, cols, rng);
    const Matrix want = OracleMatMulTransposeA(a, b);
    Matrix out = dirty;
    MatMulTransposeAInto(a, b, &out);
    EXPECT_TRUE(SameBits(out, want)) << "MatMulTransposeAInto " << shape;
  }
}

/// Parameter: true forces the portable fallback; false runs the AVX2 path
/// (skipped on a CPU without AVX2, where both would be the fallback).
class KernelPathTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!GetParam() && !UseAvx2Kernels()) GTEST_SKIP() << "no AVX2";
    ForcePortableKernelsForTesting(GetParam());
  }
  void TearDown() override { ForcePortableKernelsForTesting(false); }
};

TEST_P(KernelPathTest, ProductsMatchOracleAtEveryTileRemainder) {
  Rng rng(41);
  for (int rows = 1; rows <= 9; ++rows) {
    for (int cols = 1; cols <= 17; ++cols) {
      for (int inner = 1; inner <= 13; ++inner) {
        ExpectKernelsMatchOracles(rows, cols, inner, &rng);
      }
    }
  }
}

TEST_P(KernelPathTest, ProductsMatchOracleAtPolicyShapes) {
  // The twofold policy on cyber1: a 64-row minibatch through the
  // 105 -> 64 -> 64 trunk into a 49-wide policy head and a 1-wide value
  // head. (rows, cols, inner) triples cover every forward, weight-gradient
  // and input-gradient product of that network.
  Rng rng(42);
  const int shapes[][3] = {{64, 64, 105}, {64, 105, 64}, {64, 64, 64},
                           {64, 49, 64},  {49, 64, 64},  {64, 1, 64},
                           {1, 64, 64},   {4, 64, 105},  {1, 64, 105}};
  for (const auto& shape : shapes) {
    ExpectKernelsMatchOracles(shape[0], shape[1], shape[2], &rng);
  }
}

TEST_P(KernelPathTest, AdamStepMatchesScalarLoop) {
  // Lengths 1..7 and 13 leave every remainder of the 4-lane loop.
  const int lengths[] = {1, 2, 3, 4, 5, 6, 7, 13};
  ParameterStore store;
  for (int n : lengths) store.Create("p" + std::to_string(n), 1, n);
  const std::vector<Parameter*> params = store.All();
  Rng rng(43);
  for (Parameter* p : params) {
    for (double& w : p->value.data()) w = rng.NextGaussian();
  }
  // The scalar oracle: Adam's per-element update, written out.
  const double lr = 3e-3, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  std::vector<Matrix> want, m, v;
  for (Parameter* p : params) {
    want.push_back(p->value);
    m.emplace_back(1, p->value.cols());
    v.emplace_back(1, p->value.cols());
  }
  Adam::Options options;
  options.learning_rate = lr;
  Adam adam(options);
  for (int step = 1; step <= 5; ++step) {
    const double bias1 = 1.0 - std::pow(b1, static_cast<double>(step));
    const double bias2 = 1.0 - std::pow(b2, static_cast<double>(step));
    for (size_t k = 0; k < params.size(); ++k) {
      for (size_t i = 0; i < params[k]->grad.size(); ++i) {
        const double g = step == 3 && i == 0 ? 0.0 : rng.NextGaussian();
        params[k]->grad.data()[i] = g;
        double& mi = m[k].data()[i];
        double& vi = v[k].data()[i];
        mi = b1 * mi + (1.0 - b1) * g;
        vi = b2 * vi + (1.0 - b2) * g * g;
        const double mhat = mi / bias1;
        const double vhat = vi / bias2;
        want[k].data()[i] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
    }
    adam.Step(params);
    for (size_t k = 0; k < params.size(); ++k) {
      EXPECT_TRUE(SameBits(params[k]->value, want[k]))
          << params[k]->name << " step " << step;
      EXPECT_TRUE(SameBits(adam.first_moments()[k], m[k]))
          << params[k]->name << " step " << step;
      EXPECT_TRUE(SameBits(adam.second_moments()[k], v[k]))
          << params[k]->name << " step " << step;
    }
  }
}

/// The parameter gradients one forward and backward pass of `layer`
/// accumulates, through Backward or through BackwardParameters.
std::vector<Matrix> ParameterGradients(const Layer& layer,
                                       ParameterStore* store,
                                       const Matrix& input, const Matrix& grad,
                                       bool skip_input_grad) {
  Workspace ws;
  ZeroGradients(store->All());
  layer.Forward(input, &ws);
  if (skip_input_grad) {
    layer.BackwardParameters(grad, &ws);
  } else {
    layer.Backward(grad, &ws);
  }
  std::vector<Matrix> grads;
  for (Parameter* p : store->All()) grads.push_back(p->grad);
  return grads;
}

TEST_P(KernelPathTest, ParameterGradientsIgnoreSkippedInputGradient) {
  // BackwardParameters accumulates exactly what Backward does, for a lone
  // Dense layer and for a ReLU MLP whose first layer skips grad · W.
  Rng rng(44);
  const Matrix input = TestFactor(64, 105, &rng);
  ParameterStore dense_store, mlp_store;
  Dense dense(105, 64, &dense_store, "d", &rng);
  auto mlp = MakeMlp(105, {64, 64}, 49, &mlp_store, "mlp", &rng);
  const Matrix dense_grad = TestFactor(64, 64, &rng);
  const Matrix mlp_grad = TestFactor(64, 49, &rng);

  const struct {
    const Layer* layer;
    ParameterStore* store;
    const Matrix* grad;
  } cases[] = {{&dense, &dense_store, &dense_grad},
               {mlp.get(), &mlp_store, &mlp_grad}};
  for (const auto& c : cases) {
    const auto full = ParameterGradients(*c.layer, c.store, input, *c.grad,
                                         /*skip_input_grad=*/false);
    const auto params_only = ParameterGradients(*c.layer, c.store, input,
                                                *c.grad,
                                                /*skip_input_grad=*/true);
    for (size_t k = 0; k < full.size(); ++k) {
      EXPECT_TRUE(SameBits(params_only[k], full[k]))
          << c.store->All()[k]->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, KernelPathTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Portable" : "Avx2";
                         });

// ------------------------------------------------------------ workspace

TEST(WorkspaceTest, SharedGraphSeparateWorkspaces) {
  // One parameter store, two workspaces: interleaved forward passes must
  // not clobber each other — the core stateless-graph guarantee.
  ParameterStore store;
  Rng rng(31);
  Dense dense(3, 2, &store, "d", &rng);

  Matrix x1(1, 3, 1.0);
  Matrix x2(1, 3, -2.0);
  Workspace ws1, ws2;
  const Matrix& y1 = dense.Forward(x1, &ws1);
  const Matrix& y2 = dense.Forward(x2, &ws2);
  Matrix y1_copy = y1;  // y1 must still be intact after the second pass

  Workspace fresh;
  const Matrix& y1_again = dense.Forward(x1, &fresh);
  for (size_t i = 0; i < y1_copy.size(); ++i) {
    EXPECT_EQ(y1.data()[i], y1_copy.data()[i]);
    EXPECT_EQ(y1_again.data()[i], y1_copy.data()[i]);
  }
  EXPECT_NE(y1.data()[0], y2.data()[0]);
}

TEST(WorkspaceTest, ParameterStoreNamesAndOrder) {
  ParameterStore store;
  Rng rng(32);
  auto net = MakeMlp(4, {5}, 2, &store, "mlp", &rng);
  ASSERT_EQ(store.size(), 4u);
  auto all = store.All();
  EXPECT_EQ(all[0]->name, "mlp.0.weight");
  EXPECT_EQ(all[1]->name, "mlp.0.bias");
  EXPECT_EQ(all[2]->name, "mlp.1.weight");
  EXPECT_EQ(all[3]->name, "mlp.1.bias");
  EXPECT_EQ(store.Find("mlp.1.weight"), all[2]);
  EXPECT_EQ(store.Find("nope"), nullptr);
  EXPECT_EQ(store.NumScalars(), (4 * 5 + 5) + (5 * 2 + 2));
  // Layer-reported parameters match store order.
  EXPECT_EQ(net->Parameters(), all);
}

// Weight files and checkpoints store parameters positionally by name, so
// the shared actor-critic network must create them in this order.
TEST(ActorCriticNetTest, ParametersInWeightFileOrder) {
  ActorCriticNet net(7, {5, 4}, 9, /*seed=*/3);
  const std::vector<std::string> names = {
      "trunk.0.weight",     "trunk.0.bias",
      "trunk.1.weight",     "trunk.1.bias",
      "policy_head.weight", "policy_head.bias",
      "value_head.weight",  "value_head.bias"};
  const std::vector<Parameter*> params = net.Parameters();
  ASSERT_EQ(params.size(), names.size());
  for (size_t k = 0; k < names.size(); ++k) {
    EXPECT_EQ(params[k]->name, names[k]);
  }
  EXPECT_EQ(params[4]->value.rows(), 9);  // policy head: 9 × 4
  EXPECT_EQ(params[6]->value.rows(), 1);  // value head: 1 × 4

  const ActorCriticNet::Outputs out = net.Forward(Matrix(3, 7, 0.5));
  EXPECT_EQ(out.logits.rows(), 3);
  EXPECT_EQ(out.logits.cols(), 9);
  EXPECT_EQ(out.values.cols(), 1);
  EXPECT_EQ(net.forward_passes(), 1);
}

// ----------------------------------------------------- gradient checks
//
// Finite differences against the manual backprop, under the Workspace API.
// L = sum(network(x) .* coeff) for fixed random coeff.

void CheckGradients(Layer* net, ParameterStore* store, const Matrix& input,
                    double tolerance) {
  Workspace ws;
  Matrix out = net->Forward(input, &ws);  // copy: workspace will be reused
  Matrix coeff(out.rows(), out.cols());
  Rng rng(11);
  for (double& c : coeff.data()) c = rng.NextGaussian();

  ZeroGradients(store->All());
  net->Forward(input, &ws);
  net->Backward(coeff, &ws);

  Workspace fd_ws;
  for (Parameter* p : store->All()) {
    for (size_t i = 0; i < p->value.size(); i += 7) {  // sample positions
      const double eps = 1e-5;
      const double original = p->value.data()[i];
      p->value.data()[i] = original + eps;
      Matrix plus = net->Forward(input, &fd_ws);
      p->value.data()[i] = original - eps;
      Matrix minus = net->Forward(input, &fd_ws);
      p->value.data()[i] = original;
      double numeric = 0.0;
      for (size_t k = 0; k < plus.size(); ++k) {
        numeric += coeff.data()[k] * (plus.data()[k] - minus.data()[k]);
      }
      numeric /= 2 * eps;
      EXPECT_NEAR(p->grad.data()[i], numeric, tolerance)
          << p->name << " element " << i;
    }
  }
}

TEST(GradientTest, DenseLayer) {
  ParameterStore store;
  Rng rng(5);
  Dense dense(4, 3, &store, "d", &rng);
  Matrix input(2, 4);
  for (double& x : input.data()) x = rng.NextGaussian();
  CheckGradients(&dense, &store, input, 1e-6);
}

TEST(GradientTest, MlpWithRelu) {
  ParameterStore store;
  Rng rng(6);
  auto net = MakeMlp(5, {8, 8}, 3, &store, "mlp", &rng);
  Matrix input(3, 5);
  for (double& x : input.data()) x = rng.NextGaussian() + 0.5;
  CheckGradients(net.get(), &store, input, 1e-5);
}

TEST(GradientTest, DenseInputGradient) {
  ParameterStore store;
  Rng rng(8);
  Dense dense(3, 2, &store, "d", &rng);
  Matrix input(1, 3);
  for (double& x : input.data()) x = rng.NextGaussian();
  Workspace ws;
  dense.Forward(input, &ws);
  Matrix coeff(1, 2);
  coeff(0, 0) = 1.0;
  coeff(0, 1) = -2.0;
  ZeroGradients(store.All());
  Matrix grad_in = dense.Backward(coeff, &ws);
  Workspace fd_ws;
  for (int j = 0; j < 3; ++j) {
    const double eps = 1e-6;
    Matrix bumped = input;
    bumped(0, j) += eps;
    Matrix plus = dense.Forward(bumped, &fd_ws);
    bumped(0, j) -= 2 * eps;
    Matrix minus = dense.Forward(bumped, &fd_ws);
    double numeric =
        (coeff(0, 0) * (plus(0, 0) - minus(0, 0)) +
         coeff(0, 1) * (plus(0, 1) - minus(0, 1))) /
        (2 * eps);
    EXPECT_NEAR(grad_in(0, j), numeric, 1e-6);
  }
}

TEST(GradientTest, ReluInputGradient) {
  // Input gradient of ReLU alone: pass-through on positive inputs, zero on
  // negative ones (inputs kept away from the kink for clean FD).
  Relu relu;
  Matrix input(2, 3);
  input(0, 0) = 1.5;
  input(0, 1) = -2.0;
  input(0, 2) = 0.7;
  input(1, 0) = -0.4;
  input(1, 1) = 3.0;
  input(1, 2) = -1.1;
  Workspace ws;
  relu.Forward(input, &ws);
  Matrix coeff(2, 3);
  Rng rng(14);
  for (double& c : coeff.data()) c = rng.NextGaussian();
  Matrix grad_in = relu.Backward(coeff, &ws);
  Workspace fd_ws;
  for (size_t i = 0; i < input.size(); ++i) {
    const double eps = 1e-6;
    Matrix bumped = input;
    bumped.data()[i] += eps;
    Matrix plus = relu.Forward(bumped, &fd_ws);
    bumped.data()[i] -= 2 * eps;
    Matrix minus = relu.Forward(bumped, &fd_ws);
    double numeric = 0.0;
    for (size_t k = 0; k < plus.size(); ++k) {
      numeric += coeff.data()[k] * (plus.data()[k] - minus.data()[k]);
    }
    numeric /= 2 * eps;
    EXPECT_NEAR(grad_in.data()[i], numeric, 1e-6) << "element " << i;
  }
}

TEST(GradientTest, SoftmaxHeadLogProb) {
  // The policies' head structure: Dense -> softmax -> L = log p[chosen],
  // with the analytic logits gradient (onehot − p) backpropagated through
  // the Dense layer and checked against finite differences on its params.
  ParameterStore store;
  Rng rng(15);
  Dense head(4, 5, &store, "head", &rng);
  Matrix input(1, 4);
  for (double& x : input.data()) x = rng.NextGaussian();
  const int chosen = 2;

  auto loss = [&](Workspace* ws) {
    Matrix probs = head.Forward(input, ws);
    SoftmaxRangeInPlace(&probs, 0, 5);
    return std::log(probs(0, chosen));
  };

  Workspace ws;
  Matrix probs = head.Forward(input, &ws);
  SoftmaxRangeInPlace(&probs, 0, 5);
  Matrix dlogits(1, 5);
  for (int j = 0; j < 5; ++j) {
    dlogits(0, j) = (j == chosen ? 1.0 : 0.0) - probs(0, j);
  }
  ZeroGradients(store.All());
  head.Backward(dlogits, &ws);

  Workspace fd_ws;
  for (Parameter* p : store.All()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      const double eps = 1e-5;
      const double original = p->value.data()[i];
      p->value.data()[i] = original + eps;
      const double plus = loss(&fd_ws);
      p->value.data()[i] = original - eps;
      const double minus = loss(&fd_ws);
      p->value.data()[i] = original;
      const double numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric, 1e-6)
          << p->name << " element " << i;
    }
  }
}

// ------------------------------------------------------------ training

TEST(OptimizerTest, ZeroGradientsClears) {
  ParameterStore store;
  Rng rng(9);
  Dense dense(2, 2, &store, "d", &rng);
  Matrix input(1, 2, 1.0);
  Workspace ws;
  dense.Forward(input, &ws);
  dense.Backward(Matrix(1, 2, 1.0), &ws);
  ZeroGradients(store.All());
  for (Parameter* p : store.All()) {
    for (double g : p->grad.data()) EXPECT_DOUBLE_EQ(g, 0.0);
  }
}

TEST(OptimizerTest, ClipGradientsByNorm) {
  ParameterStore store;
  Rng rng(10);
  Dense dense(2, 2, &store, "d", &rng);
  for (Parameter* p : store.All()) {
    for (double& g : p->grad.data()) g = 10.0;
  }
  GradClipResult clip = ClipGradientsByNorm(store.All(), 1.0);
  EXPECT_GT(clip.pre_clip_norm, 1.0);
  EXPECT_TRUE(clip.clipped);
  EXPECT_EQ(clip.nonfinite_count, 0);
  double sq = 0.0;
  for (Parameter* p : store.All()) {
    for (double g : p->grad.data()) sq += g * g;
  }
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-9);
}

TEST(OptimizerTest, ClipGradientsZeroNormIsNoOp) {
  ParameterStore store;
  Parameter* p = store.Create("w", 2, 2);
  // All gradients zero: the norm is 0, nothing to scale, no 0/0 NaNs.
  GradClipResult clip = ClipGradientsByNorm(store.All(), 1.0);
  EXPECT_EQ(clip.pre_clip_norm, 0.0);
  EXPECT_FALSE(clip.clipped);
  EXPECT_EQ(clip.nonfinite_count, 0);
  for (double g : p->grad.data()) EXPECT_EQ(g, 0.0);
}

TEST(OptimizerTest, ClipGradientsNonFiniteZeroesEverything) {
  ParameterStore store;
  Parameter* a = store.Create("a", 2, 2);
  Parameter* b = store.Create("b", 1, 3);
  for (double& g : a->grad.data()) g = 1.0;
  b->grad.data()[0] = std::numeric_limits<double>::infinity();
  b->grad.data()[1] = std::numeric_limits<double>::quiet_NaN();
  GradClipResult clip = ClipGradientsByNorm(store.All(), 1.0);
  // The poisoned norm is reported together with exactly how many gradient
  // values were non-finite, and every gradient — including the finite
  // ones — is zeroed so the next optimizer step is a safe no-op.
  EXPECT_FALSE(std::isfinite(clip.pre_clip_norm));
  EXPECT_EQ(clip.nonfinite_count, 2);
  EXPECT_FALSE(clip.clipped);
  for (Parameter* p : store.All()) {
    for (double g : p->grad.data()) EXPECT_EQ(g, 0.0);
  }
}

TEST(OptimizerTest, AdamSetStateRoundTripContinuesBitIdentically) {
  // Drive one Adam for a few steps, snapshot it via the checkpoint
  // accessors, restore into a fresh Adam, and check both produce the same
  // weights bit for bit from then on.
  ParameterStore store_a, store_b;
  Parameter* pa = store_a.Create("w", 2, 3);
  Parameter* pb = store_b.Create("w", 2, 3);
  Adam adam_a(0.01);
  for (int step = 0; step < 5; ++step) {
    for (size_t i = 0; i < pa->grad.data().size(); ++i) {
      pa->grad.data()[i] = 0.1 * static_cast<double>(i) - 0.2 * step;
    }
    adam_a.Step(store_a.All());
  }
  pb->value = pa->value;
  Adam adam_b(0.01);
  adam_b.SetState(adam_a.step_count(), adam_a.first_moments(),
                  adam_a.second_moments());
  EXPECT_EQ(adam_b.step_count(), 5);
  for (int step = 0; step < 3; ++step) {
    for (size_t i = 0; i < pa->grad.data().size(); ++i) {
      const double g = 0.05 * static_cast<double>(i + step);
      pa->grad.data()[i] = g;
      pb->grad.data()[i] = g;
    }
    adam_a.Step(store_a.All());
    adam_b.Step(store_b.All());
    for (size_t i = 0; i < pa->value.data().size(); ++i) {
      EXPECT_EQ(pa->value.data()[i], pb->value.data()[i])
          << "step " << step << " element " << i;
    }
  }
}

/// Adam should fit y = 2x - 1 with a single Dense unit.
double FitLinear(Adam* optimizer, int steps) {
  ParameterStore store;
  Rng rng(12);
  Dense dense(1, 1, &store, "d", &rng);
  Workspace ws;
  double final_loss = 0.0;
  for (int step = 0; step < steps; ++step) {
    Matrix x(8, 1);
    Matrix target(8, 1);
    for (int i = 0; i < 8; ++i) {
      x(i, 0) = rng.NextDouble(-1, 1);
      target(i, 0) = 2.0 * x(i, 0) - 1.0;
    }
    const Matrix& out = dense.Forward(x, &ws);
    Matrix grad(8, 1);
    final_loss = 0.0;
    for (int i = 0; i < 8; ++i) {
      double diff = out(i, 0) - target(i, 0);
      grad(i, 0) = 2.0 * diff / 8.0;
      final_loss += diff * diff / 8.0;
    }
    ZeroGradients(store.All());
    dense.Backward(grad, &ws);
    optimizer->Step(store.All());
  }
  return final_loss;
}

TEST(OptimizerTest, AdamConvergesOnLinearFit) {
  Adam adam(0.05);
  EXPECT_LT(FitLinear(&adam, 500), 1e-3);
  EXPECT_EQ(adam.step_count(), 500);
}

TEST(MlpTest, ParameterCountMatchesArchitecture) {
  ParameterStore store;
  Rng rng(13);
  auto net = MakeMlp(10, {16, 8}, 4, &store, "mlp", &rng);
  (void)net;
  // (10*16 + 16) + (16*8 + 8) + (8*4 + 4)
  EXPECT_EQ(store.NumScalars(), 176 + 136 + 36);
}

}  // namespace
}  // namespace atena
