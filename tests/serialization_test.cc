#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>

#include "common/random.h"
#include "nn/layers.h"
#include "nn/serialization.h"
#include "rl/checkpoint.h"

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
    // The v3 frame, then the parameter section: each parameter under its
    // own length-prefixed name.
    std::ifstream in(path);
    std::string magic, crc_line, section, first_name;
    size_t name_bytes = 0;
    std::getline(in, magic);
    std::getline(in, crc_line);
    std::getline(in, section);
    in >> name_bytes >> first_name;
    EXPECT_EQ(magic, "ATENA-NN v3");
    EXPECT_EQ(crc_line.rfind("crc32 ", 0), 0u) << crc_line;
    EXPECT_EQ(section, "params 4");
    EXPECT_EQ(name_bytes, 12u);
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

void ExpectBitIdentical(const std::vector<Matrix>& got,
                        const std::vector<Parameter*>& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t k = 0; k < want.size(); ++k) {
    const std::vector<double>& a = got[k].data();
    const std::vector<double>& b = want[k]->value.data();
    ASSERT_EQ(a.size(), b.size()) << context << " parameter " << k;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << context << " parameter " << k;
  }
}

// Every double a weight can hold — NaN, the infinities, -0.0 and
// subnormals — survives the weight file and the checkpoint's parameter
// section bit for bit: a network that ever went non-finite must save a
// file it can load back, or serving loses its snapshot.
TEST(SerializationTest, SpecialValuesRoundTripBitExactly) {
  ParameterStore store;
  Rng rng(21);
  auto net = MakeMlp(3, {4}, 2, &store, "mlp", &rng);
  (void)net;
  const std::vector<Parameter*> params = store.All();
  const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), -0.0,
                            std::numeric_limits<double>::denorm_min()};
  std::copy(std::begin(special), std::end(special),
            params[0]->value.data().begin());

  const std::string path = TempPath("special_values.nn");
  ASSERT_TRUE(SaveParameters(store, path).ok());
  ParameterStore loaded_store;
  Rng rng2(22);
  auto loaded = MakeMlp(3, {4}, 2, &loaded_store, "mlp", &rng2);
  (void)loaded;
  const Status load = LoadParameters(&loaded_store, path);
  ASSERT_TRUE(load.ok()) << load;
  std::vector<Matrix> loaded_values;
  for (const Parameter* p : loaded_store.All()) {
    loaded_values.push_back(p->value);
  }
  ExpectBitIdentical(loaded_values, params, "weight file");

  TrainingCheckpoint decoded;
  const Status decode = DecodeCheckpointPayload(
      EncodeCheckpointPayload(params, TrainingCheckpoint{}), params, "probe",
      &decoded);
  ASSERT_TRUE(decode.ok()) << decode;
  ExpectBitIdentical(decoded.param_values, params, "checkpoint payload");
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

  // The retired decimal v2 format (named parameters, max_digits10 values)
  // is refused the same way, although the file is a well-formed v2 file
  // for this very network.
  const std::string v2_path = TempPath("legacy_v2.nn");
  std::ofstream(v2_path) << "ATENA-NN v2\n"
                            "4\n"
                            "mlp.0.weight 2 2\n"
                            "0.5 -0.25 1.5 2\n"
                            "mlp.0.bias 1 2\n"
                            "0.125 -1\n"
                            "mlp.1.weight 1 2\n"
                            "3 -0.75\n"
                            "mlp.1.bias 1 1\n"
                            "0.0625\n";
  status = LoadParameters(&store, v2_path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version 'v2'"), std::string::npos)
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

  // Same shapes, different parameter names: a weight file must not load
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
