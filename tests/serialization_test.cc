#include <gtest/gtest.h>

#include <fstream>

#include "common/random.h"
#include "nn/layers.h"
#include "nn/serialization.h"

namespace atena {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializationTest, RoundTripsExactly) {
  ParameterStore store;
  Rng rng(3);
  auto net = MakeMlp(7, {5}, 3, &store, "mlp", &rng);
  const std::string path = TempPath("roundtrip.nn");
  ASSERT_TRUE(SaveParameters(store, path).ok());
  {
    // The v2 header, then each parameter under its own name.
    std::ifstream in(path);
    std::string magic, count_line, first_name;
    std::getline(in, magic);
    std::getline(in, count_line);
    in >> first_name;
    EXPECT_EQ(magic, "ATENA-NN v2");
    EXPECT_EQ(first_name, "mlp.0.weight");
  }

  ParameterStore store2;
  Rng rng2(99);  // different init
  auto loaded = MakeMlp(7, {5}, 3, &store2, "mlp", &rng2);
  (void)net;
  (void)loaded;
  ASSERT_TRUE(LoadParameters(&store2, path).ok());

  auto a = store.All();
  auto b = store2.All();
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k]->value.size(), b[k]->value.size());
    for (size_t i = 0; i < a[k]->value.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[k]->value.data()[i], b[k]->value.data()[i]);
    }
  }
}

TEST(SerializationTest, LoadedNetworkComputesIdenticalOutputs) {
  ParameterStore store;
  Rng rng(4);
  auto net = MakeMlp(4, {6}, 2, &store, "mlp", &rng);
  const std::string path = TempPath("outputs.nn");
  ASSERT_TRUE(SaveParameters(store, path).ok());
  ParameterStore store2;
  Rng rng2(5);
  auto loaded = MakeMlp(4, {6}, 2, &store2, "mlp", &rng2);
  ASSERT_TRUE(LoadParameters(&store2, path).ok());

  Matrix input(3, 4);
  Rng data_rng(6);
  for (double& x : input.data()) x = data_rng.NextGaussian();
  Workspace ws_a, ws_b;
  const Matrix& out_a = net->Forward(input, &ws_a);
  const Matrix& out_b = loaded->Forward(input, &ws_b);
  for (size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(out_a.data()[i], out_b.data()[i]);
  }
}

TEST(SerializationTest, RejectsRetiredV1FormatNamingTheVersion) {
  // A checkpoint in the retired positional (nameless) v1 format for a
  // 2->2->1 MLP. It must be refused with a message naming the version, and
  // the network must be left untouched.
  const std::string path = TempPath("legacy_v1.nn");
  std::ofstream(path) << "ATENA-NN v1\n"
                         "4\n"
                         "2 2\n"
                         "0.5 -0.25 1.5 2\n"
                         "1 2\n"
                         "0.125 -1\n"
                         "1 2\n"
                         "3 -0.75\n"
                         "1 1\n"
                         "0.0625\n";

  ParameterStore store;
  Rng rng(17);
  auto net = MakeMlp(2, {2}, 1, &store, "mlp", &rng);
  (void)net;
  const std::vector<double> before = store.All()[0]->value.data();
  Status status = LoadParameters(&store, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version 'v1'"), std::string::npos)
      << status;
  EXPECT_EQ(store.All()[0]->value.data(), before);
}

TEST(SerializationTest, NameMismatchIsRejected) {
  ParameterStore store;
  Rng rng(18);
  auto net = MakeMlp(3, {2}, 1, &store, "actor", &rng);
  (void)net;
  const std::string path = TempPath("named.nn");
  ASSERT_TRUE(SaveParameters(store, path).ok());

  // Same shapes, different parameter names: a v2 checkpoint must not load
  // into a differently-named network.
  ParameterStore other;
  Rng rng2(18);
  auto other_net = MakeMlp(3, {2}, 1, &other, "critic", &rng2);
  (void)other_net;
  Status status = LoadParameters(&other, path);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SerializationTest, ShapeMismatchIsRejectedWithoutModification) {
  ParameterStore small_store;
  Rng rng(7);
  auto small = MakeMlp(4, {3}, 2, &small_store, "mlp", &rng);
  (void)small;
  const std::string path = TempPath("mismatch.nn");
  ASSERT_TRUE(SaveParameters(small_store, path).ok());

  ParameterStore big_store;
  auto big = MakeMlp(4, {5}, 2, &big_store, "mlp", &rng);
  (void)big;
  std::vector<double> before = big_store.All()[0]->value.data();
  Status status = LoadParameters(&big_store, path);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(big_store.All()[0]->value.data(), before);
}

TEST(SerializationTest, CountMismatchIsRejected) {
  ParameterStore store2;
  Rng rng(8);
  auto two_layer = MakeMlp(4, {3}, 2, &store2, "mlp", &rng);
  (void)two_layer;
  const std::string path = TempPath("count.nn");
  ASSERT_TRUE(SaveParameters(store2, path).ok());
  ParameterStore store3;
  auto three_layer = MakeMlp(4, {3, 3}, 2, &store3, "mlp", &rng);
  (void)three_layer;
  EXPECT_EQ(LoadParameters(&store3, path).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SerializationTest, GarbageFileIsRejected) {
  const std::string path = TempPath("garbage.nn");
  std::ofstream(path) << "not a checkpoint\n";
  ParameterStore store;
  Rng rng(9);
  auto net = MakeMlp(2, {2}, 1, &store, "mlp", &rng);
  (void)net;
  EXPECT_EQ(LoadParameters(&store, path).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadParameters(&store, "/nonexistent/x.nn").code(),
            StatusCode::kIOError);
}

TEST(SerializationTest, TruncatedFileIsRejected) {
  ParameterStore store;
  Rng rng(10);
  auto net = MakeMlp(3, {3}, 2, &store, "mlp", &rng);
  (void)net;
  const std::string path = TempPath("trunc.nn");
  ASSERT_TRUE(SaveParameters(store, path).ok());
  // Chop the file in half.
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path) << content.substr(0, content.size() / 2);
  Status status = LoadParameters(&store, path);
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace atena
