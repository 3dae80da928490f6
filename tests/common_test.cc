#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_utils.h"

namespace atena {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::TypeMismatch("x").code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubler(Result<int> input) {
  ATENA_ASSIGN_OR_RETURN(int v, std::move(input));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  auto err = Doubler(Status::IOError("disk"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kIOError);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chain(int x) {
  ATENA_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_FALSE(Chain(-1).ok());
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleDiscreteRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.SampleDiscrete(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(19);
  int low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    size_t r = rng.NextZipf(10, 1.0);
    EXPECT_LT(r, 10u);
    if (r == 0) ++low;
    if (r == 9) ++high;
  }
  EXPECT_GT(low, high * 3);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(21);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ----------------------------------------------------------------- Math

TEST(MathTest, SigmoidSymmetry) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(5.0) + Sigmoid(-5.0), 1.0, 1e-12);
  EXPECT_GT(Sigmoid(3.0), 0.95);
}

TEST(MathTest, ScaledSigmoidCenterAndWidth) {
  EXPECT_DOUBLE_EQ(ScaledSigmoid(2.0, 2.0, 1.0), 0.5);
  EXPECT_GT(ScaledSigmoid(4.0, 2.0, 1.0), ScaledSigmoid(4.0, 2.0, 4.0));
}

TEST(MathTest, SigmoidBumpPeaksBetweenCenters) {
  double mid = SigmoidBump(10.0, 2.0, 1.0, 20.0, 2.0);
  double low = SigmoidBump(0.0, 2.0, 1.0, 20.0, 2.0);
  double high = SigmoidBump(40.0, 2.0, 1.0, 20.0, 2.0);
  EXPECT_GT(mid, 0.8);
  EXPECT_LT(low, 0.2);
  EXPECT_LT(high, 0.2);
}

TEST(MathTest, EntropyOfUniformIsLogN) {
  EXPECT_NEAR(Entropy({1, 1, 1, 1}), std::log(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(Entropy({5}), 0.0);
  EXPECT_DOUBLE_EQ(Entropy({}), 0.0);
  EXPECT_DOUBLE_EQ(Entropy({0, 0}), 0.0);
}

TEST(MathTest, NormalizedEntropyInUnitRange) {
  EXPECT_NEAR(NormalizedEntropy({1, 1, 1, 1}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(NormalizedEntropy({10}), 0.0);
  double skewed = NormalizedEntropy({100, 1, 1});
  EXPECT_GT(skewed, 0.0);
  EXPECT_LT(skewed, 1.0);
}

TEST(MathTest, KlDivergenceZeroForIdentical) {
  std::unordered_map<int64_t, double> p = {{1, 10}, {2, 20}, {3, 30}};
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-9);
}

TEST(MathTest, KlDivergenceNonNegativeAndFinite) {
  std::unordered_map<int64_t, double> p = {{1, 100}};
  std::unordered_map<int64_t, double> q = {{2, 100}};
  double kl = KlDivergence(p, q);
  EXPECT_GT(kl, 0.0);
  EXPECT_TRUE(std::isfinite(kl));
}

TEST(MathTest, KlDivergenceGrowsWithShift) {
  std::unordered_map<int64_t, double> base = {{1, 50}, {2, 50}};
  std::unordered_map<int64_t, double> mild = {{1, 60}, {2, 40}};
  std::unordered_map<int64_t, double> strong = {{1, 99}, {2, 1}};
  EXPECT_LT(KlDivergence(mild, base), KlDivergence(strong, base));
}

/// The kernel with an infinite bound: the exact squared distance.
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  return SquaredEuclideanDistanceBounded(
      a, b, std::numeric_limits<double>::infinity());
}

TEST(MathTest, SquaredEuclideanDistanceBasics) {
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 2}, {1, 2}), 0.0);
  // Length mismatch: extra tail measured from zero.
  EXPECT_DOUBLE_EQ(SquaredDistance({0.0}, {0.0, 3.0}), 9.0);
}

// Pins the documented mismatched-tail semantics: a shorter vector behaves
// exactly as if zero-padded to the longer length, on either side, in any
// combination, so ragged display vectors and notebook centroids live in
// one metric space.
TEST(MathTest, SquaredEuclideanDistanceTailSemantics) {
  // a longer, b longer, both directions, multiple tail elements.
  EXPECT_DOUBLE_EQ(SquaredDistance({3.0, 4.0}, {}), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({}, {3.0, 4.0}), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1.0, 2.0, 2.0}, {1.0}),
                   SquaredDistance({1.0, 2.0, 2.0}, {1.0, 0.0, 0.0}));
  EXPECT_DOUBLE_EQ(SquaredDistance({1.0}, {1.0, 2.0, 2.0}),
                   SquaredDistance({1.0, 0.0, 0.0}, {1.0, 2.0, 2.0}));
  // Two empties are at distance zero.
  EXPECT_DOUBLE_EQ(SquaredDistance({}, {}), 0.0);
  // Symmetric bit for bit, through both entry points.
  const std::vector<double> a = {1.5, -2.25, 0.0, 7.0};
  const std::vector<double> b = {0.5, 3.0};
  EXPECT_EQ(SquaredDistance(a, b), SquaredDistance(b, a));
  EXPECT_EQ(SquaredEuclideanDistanceBounded(
                a.data(), a.size(), b.data(), b.size(),
                std::numeric_limits<double>::infinity()),
            SquaredDistance(a, b));
}

TEST(MathTest, SquaredEuclideanDistanceBoundedExactUnderBound) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b = {0.0, 2.5, -1.0, 4.0};
  const double exact = SquaredDistance(a, b);
  // Any bound >= the exact value returns the exact value, bit for bit.
  EXPECT_EQ(SquaredEuclideanDistanceBounded(a, b, exact), exact);
  // A tighter bound early-exits with some partial sum above the bound.
  EXPECT_GT(SquaredEuclideanDistanceBounded(a, b, exact * 0.5), exact * 0.5);
  // Tails participate in the early exit too.
  const std::vector<double> tail = {0.0, 0.0, 0.0, 0.0, 100.0};
  EXPECT_GT(SquaredEuclideanDistanceBounded(a, tail, 1.0), 1.0);
  EXPECT_EQ(SquaredEuclideanDistanceBounded(a, tail, SquaredDistance(a, tail)),
            SquaredDistance(a, tail));
}

TEST(MathTest, MeanVarMatchesClosedForm) {
  MeanVar mv = ComputeMeanVar({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(mv.mean, 5.0);
  EXPECT_DOUBLE_EQ(mv.variance, 4.0);
  MeanVar empty = ComputeMeanVar({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(MathTest, Log1pNormalizeBehaviour) {
  EXPECT_DOUBLE_EQ(Log1pNormalize(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(Log1pNormalize(100.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(Log1pNormalize(1000.0, 100.0), 1.0);  // clamped
  double mid = Log1pNormalize(10.0, 100.0);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
}

// --------------------------------------------------------------- String

TEST(StringTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringTest, JoinRoundTrip) {
  EXPECT_EQ(JoinStrings({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringTest, CaseAndAffixHelpers) {
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_TRUE(Contains("foobar", "oba"));
  EXPECT_FALSE(Contains("foobar", "baz"));
}

TEST(StringTest, ParseInt64Strict) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("42x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("4.2", &v));
}

TEST(StringTest, ParseDoubleStrict) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("1.2.3", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(27.650), "27.65");
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(0.126, 2), "0.13");
  EXPECT_EQ(FormatDouble(-0.0001, 2), "0");
}

TEST(StringTest, PadRightFixedWidth) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadRight("abcdef", 3), "abc");
}

// -------------------------------------------------------------- Logging

TEST(LoggingTest, LevelRoundTrip) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(before);
}

}  // namespace
}  // namespace atena
