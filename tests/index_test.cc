// Exactness and determinism tests for the display-vector index
// (src/index/, DESIGN.md §14). The contract under test: every query is
// bit-identical to the flat scalar scan it accelerates — over random
// histories of any size, with duplicates, zero vectors and ragged
// dimensions, however the index was grown (batch build, incremental
// insert, serialization round-trip), and end to end through the
// environment, the diversity reward and the multi-threaded serving
// runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/math_utils.h"
#include "common/random.h"
#include "data/registry.h"
#include "eda/environment.h"
#include "index/notebook_store.h"
#include "index/vector_index.h"
#include "reward/diversity.h"
#include "serve/session_manager.h"
#include "serve/snapshot.h"

namespace atena {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ------------------------------------------------------------ generators

/// Random history in the shape display vectors actually take: mostly one
/// dimension with occasional ragged strays, duplicate-heavy (BACK and
/// no-op steps repeat earlier displays), sprinkled zero vectors.
std::vector<std::vector<double>> RandomHistory(Rng* rng, size_t count,
                                               size_t dim) {
  std::vector<std::vector<double>> vectors;
  vectors.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t kind = rng->NextBounded(10);
    if (kind == 0 && !vectors.empty()) {
      // Duplicate an earlier vector bit-for-bit.
      vectors.push_back(
          vectors[static_cast<size_t>(rng->NextBounded(vectors.size()))]);
      continue;
    }
    size_t d = dim;
    if (kind == 1) d = dim + rng->NextBounded(3);        // ragged longer
    if (kind == 2 && dim > 1) d = dim - 1;               // ragged shorter
    std::vector<double> v(d);
    if (kind == 3) {
      // Zero vector (the root display of an empty encoding).
    } else {
      for (double& x : v) x = rng->NextDouble(-2.0, 2.0);
    }
    vectors.push_back(std::move(v));
  }
  return vectors;
}

/// The flat reference scan the index must match bit for bit: running min
/// over the same bounded squared-distance kernel, in id order.
double ScalarMinSquared(const std::vector<std::vector<double>>& vectors,
                        const std::vector<double>& query, size_t id_limit) {
  double best = std::numeric_limits<double>::infinity();
  const size_t limit = std::min(id_limit, vectors.size());
  for (size_t i = 0; i < limit; ++i) {
    const double sq = SquaredEuclideanDistanceBounded(query, vectors[i], best);
    if (sq < best) best = sq;
  }
  return best;
}

/// Brute-force top-k under the (squared_distance, id) total order.
std::vector<VectorIndex::Neighbor> ScalarTopK(
    const std::vector<std::vector<double>>& vectors,
    const std::vector<double>& query, int k, size_t id_limit) {
  std::vector<VectorIndex::Neighbor> all;
  const size_t limit = std::min(id_limit, vectors.size());
  for (size_t i = 0; i < limit; ++i) {
    all.push_back(VectorIndex::Neighbor{
        static_cast<int32_t>(i), SquaredEuclideanDistance(query, vectors[i])});
  }
  std::sort(all.begin(), all.end(),
            [](const VectorIndex::Neighbor& a, const VectorIndex::Neighbor& b) {
              return a.squared_distance != b.squared_distance
                         ? a.squared_distance < b.squared_distance
                         : a.id < b.id;
            });
  if (all.size() > static_cast<size_t>(k)) {
    all.resize(static_cast<size_t>(k));
  }
  return all;
}

void ExpectSameNeighbors(const std::vector<VectorIndex::Neighbor>& got,
                         const std::vector<VectorIndex::Neighbor>& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_EQ(got[i].squared_distance, want[i].squared_distance)
        << context << " rank " << i;
  }
}

// ------------------------------------------------- index-vs-scalar exact

TEST(VectorIndexTest, MinDistanceBitIdenticalToScalarScanRandomHistories) {
  Rng rng(2024);
  // Sizes straddle every structural regime: single vector, one unsplit
  // leaf, one split, deep trees; small leaves force many splits.
  const size_t sizes[] = {1, 2, 5, 33, 200, 1500};
  const size_t dims[] = {1, 3, 8, 17};
  VectorIndex::Options options;
  options.branching = 4;
  options.leaf_capacity = 8;
  for (const size_t size : sizes) {
    for (const size_t dim : dims) {
      const auto vectors = RandomHistory(&rng, size, dim);
      VectorIndex index(options);
      for (const auto& v : vectors) index.Insert(v);
      ASSERT_EQ(index.size(), vectors.size());
      for (int q = 0; q < 25; ++q) {
        // Mix of member vectors (distance 0 exists) and fresh queries.
        const std::vector<double> query =
            (q % 2 == 0)
                ? vectors[static_cast<size_t>(rng.NextBounded(vectors.size()))]
                : RandomHistory(&rng, 1, dim)[0];
        const size_t id_limit =
            (q % 3 == 0) ? vectors.size()
                         : 1 + rng.NextBounded(vectors.size());
        const std::string context = "size=" + std::to_string(size) +
                                    " dim=" + std::to_string(dim) +
                                    " query=" + std::to_string(q);
        EXPECT_EQ(index.MinSquaredDistance(query, id_limit),
                  ScalarMinSquared(vectors, query, id_limit))
            << context;
      }
    }
  }
}

TEST(VectorIndexTest, MinDistanceBitIdenticalAtTenThousandVectors) {
  Rng rng(7);
  const auto vectors = RandomHistory(&rng, 10000, 6);
  VectorIndex index;
  for (const auto& v : vectors) index.Insert(v);
  VectorIndex::QueryStats stats;
  for (int q = 0; q < 10; ++q) {
    const std::vector<double> query =
        vectors[static_cast<size_t>(rng.NextBounded(vectors.size()))];
    EXPECT_EQ(index.MinSquaredDistance(query, vectors.size(), &stats),
              ScalarMinSquared(vectors, query, vectors.size()));
  }
  // The accelerator must actually accelerate: over 10 queries at 10k
  // vectors the ball bounds have to prune the overwhelming majority of
  // candidates (this is a structural property of the tree, not a timing
  // assertion, so it is stable under sanitizers).
  EXPECT_LT(stats.vectors_checked, 10 * 10000 / 5)
      << "pruning is not effective: " << stats.vectors_checked
      << " of 100000 candidates scanned";
}

TEST(VectorIndexTest, TopKMatchesBruteForceUnderTotalOrder) {
  Rng rng(99);
  const auto vectors = RandomHistory(&rng, 700, 5);
  VectorIndex::Options options;
  options.branching = 4;
  options.leaf_capacity = 8;
  VectorIndex incremental(options);
  for (const auto& v : vectors) incremental.Insert(v);
  for (const int k : {1, 3, 10, 699, 700, 900}) {
    for (int q = 0; q < 10; ++q) {
      const std::vector<double> query =
          (q % 2 == 0)
              ? vectors[static_cast<size_t>(rng.NextBounded(vectors.size()))]
              : RandomHistory(&rng, 1, 5)[0];
      const size_t id_limit =
          (q % 3 == 0) ? vectors.size() : 1 + rng.NextBounded(vectors.size());
      ExpectSameNeighbors(incremental.TopK(query, k, id_limit),
                          ScalarTopK(vectors, query, k, id_limit),
                          "k=" + std::to_string(k) +
                              " limit=" + std::to_string(id_limit));
    }
  }
}

TEST(VectorIndexTest, DegenerateCases) {
  VectorIndex index;
  // Empty index: no neighbor exists.
  EXPECT_EQ(index.MinSquaredDistance({1.0, 2.0}),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(index.TopK({1.0, 2.0}, 3).empty());

  EXPECT_EQ(index.Insert({1.0, 2.0}), 0);
  // id_limit 0 excludes everything; k <= 0 returns nothing.
  EXPECT_EQ(index.MinSquaredDistance({1.0, 2.0}, 0),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(index.TopK({1.0, 2.0}, 0).empty());
  // Exact self-match.
  EXPECT_EQ(index.MinSquaredDistance({1.0, 2.0}), 0.0);

  index.Clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.MinSquaredDistance({1.0}),
            std::numeric_limits<double>::infinity());
}

TEST(VectorIndexTest, AllDuplicateVectorsStayCorrectPastLeafCapacity) {
  // An unseparable member set can never split; the leaf must stay flat
  // (retry doubling) and keep answering exactly.
  VectorIndex::Options options;
  options.branching = 4;
  options.leaf_capacity = 4;
  VectorIndex index(options);
  const std::vector<double> v = {0.5, -1.5, 3.0};
  for (int i = 0; i < 100; ++i) index.Insert(v);
  EXPECT_EQ(index.MinSquaredDistance(v), 0.0);
  EXPECT_EQ(index.node_count(), 1) << "unseparable leaf must not split";
  const auto top = index.TopK(v, 3);
  ASSERT_EQ(top.size(), 3u);
  // Ties resolve to the lowest ids under the total order.
  EXPECT_EQ(top[0].id, 0);
  EXPECT_EQ(top[1].id, 1);
  EXPECT_EQ(top[2].id, 2);

  // A separable tail arriving later still splits the leaf eventually.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    index.Insert({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
  }
  EXPECT_GT(index.node_count(), 1);
  EXPECT_EQ(index.MinSquaredDistance(v), 0.0);
}

// -------------------------------------------------- reward / environment

/// Reward signal scoring only diversity — the component the index
/// accelerates — so per-step rewards compare the two paths directly.
class DiversityOnlyReward final : public RewardSignal {
 public:
  double Compute(const RewardContext& context) override {
    return DiversityReward(context);
  }
};

EnvConfig IndexedEnvConfig(int episode_length, int threshold) {
  EnvConfig config;
  config.episode_length = episode_length;
  config.num_term_bins = 4;
  config.diversity_index_threshold = threshold < 0 ? INT_MAX : threshold;
  return config;
}

TEST(IndexedDiversityTest, RewardBitIdenticalWithIndexOnAndOff) {
  Dataset dataset = MakeDataset("cyber2").value();
  const int episode_length = 120;
  // Threshold 8 activates the index mid-episode, covering the dormant →
  // catch-up → incremental transition; -1 disables it entirely.
  EdaEnvironment indexed(dataset, IndexedEnvConfig(episode_length, 8));
  EdaEnvironment scalar(dataset, IndexedEnvConfig(episode_length, -1));
  DiversityOnlyReward reward_a, reward_b;
  indexed.SetRewardSignal(&reward_a);
  scalar.SetRewardSignal(&reward_b);
  indexed.Reset();
  scalar.Reset();

  Rng actions(123);
  for (int step = 0; step < episode_length; ++step) {
    const EnvAction action = SampleRandomAction(indexed.action_space(), &actions);
    const StepOutcome a = indexed.Step(action);
    const StepOutcome b = scalar.Step(action);
    EXPECT_EQ(a.reward, b.reward) << "step " << step;
    EXPECT_EQ(a.valid, b.valid) << "step " << step;
  }
  EXPECT_NE(indexed.display_index(), nullptr)
      << "index never activated: the test lost its point";
  EXPECT_EQ(scalar.display_index(), nullptr);

  // The public entry point agrees with the in-TU scalar reference on the
  // final state too.
  RewardContext context;
  context.env = &indexed;
  EXPECT_EQ(DiversityReward(context),
            ScalarDiversityReward(MakeIndexedRewardContext(context)));
}

TEST(IndexedDiversityTest, RestoreSnapshotRebuildsTheIndex) {
  Dataset dataset = MakeDataset("cyber2").value();
  EdaEnvironment env(dataset, IndexedEnvConfig(60, 4));
  DiversityOnlyReward reward;
  env.SetRewardSignal(&reward);
  env.Reset();

  Rng actions(55);
  std::vector<EnvAction> prefix, suffix;
  for (int i = 0; i < 20; ++i) {
    prefix.push_back(SampleRandomAction(env.action_space(), &actions));
  }
  for (int i = 0; i < 10; ++i) {
    suffix.push_back(SampleRandomAction(env.action_space(), &actions));
  }
  for (const auto& action : prefix) env.Step(action);
  ASSERT_NE(env.display_index(), nullptr);

  // Speculative evaluation à la greedy baselines: snapshot, take the
  // suffix, roll back, take it again — rewards must replay bit-for-bit
  // (term sampling consumes the env Rng, so pin it alongside).
  const EdaEnvironment::Snapshot snapshot = env.SaveSnapshot();
  const RngState rng_state = env.rng_state();
  std::vector<double> first;
  for (const auto& action : suffix) first.push_back(env.Step(action).reward);
  env.RestoreSnapshot(snapshot);
  env.set_rng_state(rng_state);
  ASSERT_NE(env.display_index(), nullptr)
      << "RestoreSnapshot must rebuild the index";
  ASSERT_EQ(env.display_index()->size(), env.display_vectors().size());
  std::vector<double> second;
  for (const auto& action : suffix) second.push_back(env.Step(action).reward);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "replayed step " << i;
  }
}

// --------------------------------------------------------- notebook store

std::vector<std::vector<double>> Notebook(std::vector<double> base,
                                          size_t length) {
  std::vector<std::vector<double>> sequence;
  for (size_t i = 0; i < length; ++i) {
    std::vector<double> v = base;
    v[0] += static_cast<double>(i);
    sequence.push_back(std::move(v));
  }
  return sequence;
}

TEST(NotebookStoreTest, RegisterTopKAndExactDuplicates) {
  NotebookStore store;
  const auto a = Notebook({0.0, 0.0}, 4);
  const auto b = Notebook({10.0, 0.0}, 4);
  const auto c = Notebook({0.5, 0.0}, 4);
  EXPECT_EQ(store.Register(1, 100, a), 0);
  EXPECT_EQ(store.Register(2, 200, b), 1);
  EXPECT_EQ(store.Register(3, 300, c), 2);
  EXPECT_EQ(store.size(), 3u);

  // Too-short sequences are refused and counted.
  EXPECT_EQ(store.Register(4, 400, Notebook({1.0, 1.0}, 1)), -1);
  EXPECT_EQ(store.skipped_registrations(), 1);
  EXPECT_EQ(store.size(), 3u);

  const auto matches = store.TopK(a, 2);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].entry.notebook_id, 0u);  // itself: distance 0
  EXPECT_EQ(matches[0].distance, 0.0);
  EXPECT_EQ(matches[1].entry.notebook_id, 2u);  // c is nearer than b
  EXPECT_LT(matches[1].distance, 1.0);
  EXPECT_EQ(matches[0].entry.session_id, 1u);
  EXPECT_EQ(matches[0].entry.session_seed, 100u);
  EXPECT_EQ(matches[0].entry.length, 4u);

  // Duplicate detection is bitwise, not centroid-near.
  EXPECT_EQ(store.FindDuplicate(a), 0);
  EXPECT_EQ(store.FindDuplicate(b), 1);
  auto almost = a;
  almost[0][0] += 1e-15;
  EXPECT_EQ(store.FindDuplicate(almost), -1);
  EXPECT_EQ(store.sequence(1), b);
}

TEST(NotebookStoreTest, SaveLoadRoundTrip) {
  NotebookStore store;
  Rng rng(8);
  for (uint64_t i = 0; i < 25; ++i) {
    const auto nb = Notebook({rng.NextDouble(), rng.NextDouble()},
                             2 + rng.NextBounded(6));
    ASSERT_GE(store.Register(i, i * 10, nb), 0);
  }
  const std::string path = TempPath("notebook_store_roundtrip.bin");
  ASSERT_TRUE(store.Save(path).ok());
  Result<NotebookStore> loaded = NotebookStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), store.size());
  for (uint64_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded.value().sequence(i), store.sequence(i));
    EXPECT_EQ(loaded.value().entry(i).session_id, store.entry(i).session_id);
  }
  const auto query = Notebook({0.4, 0.4}, 3);
  const auto want = store.TopK(query, 5);
  const auto got = loaded.value().TopK(query, 5);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].entry.notebook_id, want[i].entry.notebook_id);
    EXPECT_EQ(got[i].distance, want[i].distance);
  }
  EXPECT_EQ(loaded.value().FindDuplicate(store.sequence(3)), 3);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- serve path

SnapshotOptions ServeIndexedOptions(bool index_enabled) {
  SnapshotOptions options;
  options.env.episode_length = 6;
  options.env.num_term_bins = 4;
  // Activate almost immediately so even 6-step serving episodes exercise
  // the indexed path.
  options.env.diversity_index_threshold = index_enabled ? 2 : INT_MAX;
  options.policy.hidden = {24, 24};
  return options;
}

std::vector<SessionConfig> IndexedConfigs(int count) {
  std::vector<SessionConfig> configs;
  for (int i = 0; i < count; ++i) {
    SessionConfig config;
    config.seed = 4400 + static_cast<uint64_t>(i);
    config.max_steps = 4 + (i % 3) * 5;  // spans episode boundaries at 9/14
    config.greedy = (i % 2) == 0;
    configs.push_back(config);
  }
  return configs;
}

std::map<uint64_t, SessionTrace> DrainBySeed(SessionManager& manager) {
  manager.Drain();
  std::map<uint64_t, SessionTrace> by_seed;
  for (auto& outcome : manager.TakeCompleted()) {
    EXPECT_EQ(outcome.reason, RetireReason::kCompleted)
        << RetireReasonName(outcome.reason) << " " << outcome.status.ToString();
    by_seed[outcome.trace.seed] = std::move(outcome.trace);
  }
  return by_seed;
}

void ExpectServeTracesEqual(const SessionTrace& got, const SessionTrace& want,
                            const std::string& context) {
  ASSERT_EQ(got.steps.size(), want.steps.size()) << context;
  for (size_t i = 0; i < got.steps.size(); ++i) {
    EXPECT_EQ(got.steps[i].reward, want.steps[i].reward)
        << context << " step " << i;
    EXPECT_EQ(got.steps[i].display_signature, want.steps[i].display_signature)
        << context << " step " << i;
  }
  EXPECT_EQ(got.total_reward, want.total_reward) << context;
}

TEST(ServeIndexedDiversityTest, TracesIdenticalAcrossThreadsAndIndexOnOff) {
  auto reward_factory = []() { return std::make_shared<DiversityOnlyReward>(); };
  const auto configs = IndexedConfigs(5);

  // Scalar-diversity reference traces (index disabled).
  auto scalar_snapshot = std::make_shared<PolicySnapshot>(
      MakeDataset("cyber2").value(), ServeIndexedOptions(false));
  ServeOptions scalar_options;
  scalar_options.num_threads = 1;
  scalar_options.reward_factory = reward_factory;
  SessionManager scalar_manager(scalar_snapshot, scalar_options);
  for (const auto& config : configs) {
    ASSERT_TRUE(scalar_manager.Admit(config).ok());
  }
  const auto reference = DrainBySeed(scalar_manager);
  ASSERT_EQ(reference.size(), configs.size());

  // Indexed traces must match bit for bit at every thread count.
  for (const int threads : {1, 2, 4}) {
    auto snapshot = std::make_shared<PolicySnapshot>(
        MakeDataset("cyber2").value(), ServeIndexedOptions(true));
    ServeOptions options;
    options.num_threads = threads;
    options.reward_factory = reward_factory;
    options.notebook_store = std::make_shared<NotebookStore>();
    SessionManager manager(snapshot, options);
    for (const auto& config : configs) {
      ASSERT_TRUE(manager.Admit(config).ok());
    }
    const auto by_seed = DrainBySeed(manager);
    ASSERT_EQ(by_seed.size(), configs.size());
    for (const auto& config : configs) {
      ExpectServeTracesEqual(by_seed.at(config.seed),
                             reference.at(config.seed),
                             "threads=" + std::to_string(threads) + " seed=" +
                                 std::to_string(config.seed));
    }
    // Notebook registration is part of the deterministic commit path: one
    // notebook per finished episode plus the final partial one, identical
    // at every thread count. max_steps 4/9/14 against 6-step episodes
    // yield 1, 2 and 3 notebooks respectively.
    int64_t want_notebooks = 0;
    for (const auto& config : configs) {
      want_notebooks += 1 + (config.max_steps - 1) / 6;
    }
    EXPECT_EQ(manager.stats().notebooks_registered, want_notebooks)
        << "threads=" << threads;
    EXPECT_EQ(manager.notebook_store()->size(),
              static_cast<size_t>(want_notebooks));
  }
}

TEST(ServeIndexedDiversityTest, QuerySimilarNotebooksFindsRegisteredSessions) {
  auto snapshot = std::make_shared<PolicySnapshot>(
      MakeDataset("cyber2").value(), ServeIndexedOptions(true));
  ServeOptions options;
  options.reward_factory = []() {
    return std::make_shared<DiversityOnlyReward>();
  };
  options.notebook_store = std::make_shared<NotebookStore>();
  SessionManager manager(snapshot, options);
  SessionConfig config;
  config.seed = 777;
  config.max_steps = 6;
  ASSERT_TRUE(manager.Admit(config).ok());
  manager.Drain();
  manager.TakeCompleted();
  ASSERT_GE(manager.notebook_store()->size(), 1u);

  // Querying with a registered notebook's own sequence returns it first at
  // distance zero; a manager without a store answers empty.
  const auto sequence = manager.notebook_store()->sequence(0);
  const auto matches = manager.QuerySimilarNotebooks(sequence, 3);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].entry.notebook_id, 0u);
  EXPECT_EQ(matches[0].distance, 0.0);
  EXPECT_EQ(matches[0].entry.session_seed, 777u);
  EXPECT_EQ(manager.notebook_store()->FindDuplicate(sequence), 0);

  SessionManager bare(snapshot, ServeOptions{});
  EXPECT_TRUE(bare.QuerySimilarNotebooks(sequence, 3).empty());
}

}  // namespace
}  // namespace atena
