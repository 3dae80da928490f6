// Exactness and determinism tests for the exact nearest-neighbour scans
// (DESIGN.md §14): NotebookStore::TopK and the diversity reward must
// return exactly what a brute-force reference returns — over random
// ragged corpora of any size, with duplicates, zero vectors and ragged
// dimensions, across a save/load round trip, and end to end through the
// environment and the multi-threaded serving runtime, which shares one
// store across its threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
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
#include "reward/diversity.h"
#include "serve/session_manager.h"
#include "serve/snapshot.h"

namespace atena {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

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

/// The flat running-min reference: the bounded squared-distance kernel
/// over ids < id_limit, in id order.
double ScalarMinSquared(const std::vector<std::vector<double>>& vectors,
                        const std::vector<double>& query, size_t id_limit) {
  double best = kInf;
  const size_t limit = std::min(id_limit, vectors.size());
  for (size_t i = 0; i < limit; ++i) {
    const double sq = SquaredEuclideanDistanceBounded(query, vectors[i], best);
    if (sq < best) best = sq;
  }
  return best;
}

struct Neighbor {
  int32_t id = 0;
  double squared_distance = 0.0;
};

/// Brute-force top-k under the (squared_distance, id) total order: every
/// exact distance, sorted.
std::vector<Neighbor> ScalarTopK(const std::vector<std::vector<double>>& vectors,
                                 const std::vector<double>& query, int k) {
  std::vector<Neighbor> all;
  if (k <= 0) return all;
  for (size_t i = 0; i < vectors.size(); ++i) {
    all.push_back(Neighbor{static_cast<int32_t>(i),
                           SquaredEuclideanDistanceBounded(query, vectors[i],
                                                           kInf)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.squared_distance != b.squared_distance
               ? a.squared_distance < b.squared_distance
               : a.id < b.id;
  });
  if (all.size() > static_cast<size_t>(k)) {
    all.resize(static_cast<size_t>(k));
  }
  return all;
}

/// A notebook's centroid as the store defines it: the mean over the
/// zero-padded union space, summed in sequence order, then scaled by 1/n.
std::vector<double> ReferenceCentroid(
    const std::vector<std::vector<double>>& sequence) {
  size_t dim = 0;
  for (const auto& v : sequence) dim = std::max(dim, v.size());
  std::vector<double> centroid(dim, 0.0);
  for (const auto& v : sequence) {
    for (size_t i = 0; i < v.size(); ++i) centroid[i] += v[i];
  }
  const double inv = 1.0 / static_cast<double>(sequence.size());
  for (double& c : centroid) c *= inv;
  return centroid;
}

/// The store's matches against the reference: same ids, same distances
/// bit for bit (the store reports the root of the squared distance).
void ExpectSameMatches(const std::vector<NotebookStore::Match>& got,
                       const std::vector<Neighbor>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].entry.notebook_id, static_cast<uint64_t>(want[i].id))
        << context << " rank " << i;
    EXPECT_EQ(got[i].distance, std::sqrt(want[i].squared_distance))
        << context << " rank " << i;
  }
}

/// Registers `count` random ragged notebooks of 2..13 displays (about one
/// in eight a bit-for-bit copy of an earlier one) and returns their
/// reference centroids.
std::vector<std::vector<double>> FillRandomCorpus(NotebookStore* store,
                                                  Rng* rng, size_t count,
                                                  size_t dim) {
  std::vector<std::vector<double>> centroids;
  for (size_t i = 0; i < count; ++i) {
    std::vector<std::vector<double>> sequence =
        (i > 0 && rng->NextBounded(8) == 0)
            ? store->sequence(rng->NextBounded(i))
            : RandomHistory(rng, 2 + rng->NextBounded(12), dim);
    EXPECT_EQ(store->Register(i, i, sequence), static_cast<int64_t>(i));
    centroids.push_back(ReferenceCentroid(sequence));
  }
  return centroids;
}

// ---------------------------------------------- store-vs-brute-force exact

TEST(NotebookStoreTest, TopKBitIdenticalToScalarTopKOnRandomCorpora) {
  Rng rng(2024);
  const size_t sizes[] = {1, 2, 5, 33, 200, 1500};
  const size_t dims[] = {1, 3, 8, 17};
  for (const size_t size : sizes) {
    for (const size_t dim : dims) {
      NotebookStore store;
      const auto centroids = FillRandomCorpus(&store, &rng, size, dim);
      ASSERT_EQ(store.size(), size);
      for (int q = 0; q < 12; ++q) {
        // Mix of registered notebooks (distance 0 exists) and fresh ones.
        const std::vector<std::vector<double>> query =
            (q % 2 == 0) ? store.sequence(rng.NextBounded(size))
                         : RandomHistory(&rng, 2 + rng.NextBounded(12), dim);
        const int k = q % 3 == 0 ? 1
                                 : q % 3 == 1 ? 5
                                              : static_cast<int>(size) + 3;
        ExpectSameMatches(
            store.TopK(query, k),
            ScalarTopK(centroids, ReferenceCentroid(query), k),
            "size=" + std::to_string(size) + " dim=" + std::to_string(dim) +
                " query=" + std::to_string(q) + " k=" + std::to_string(k));
      }
    }
  }
}

TEST(NotebookStoreTest, TopKBitIdenticalAtTenThousandNotebooks) {
  Rng rng(7);
  NotebookStore store;
  const auto centroids = FillRandomCorpus(&store, &rng, 10000, 6);
  for (int q = 0; q < 10; ++q) {
    const auto query = store.sequence(rng.NextBounded(store.size()));
    for (const int k : {1, 5, 50}) {
      ExpectSameMatches(store.TopK(query, k),
                        ScalarTopK(centroids, ReferenceCentroid(query), k),
                        "query=" + std::to_string(q) +
                            " k=" + std::to_string(k));
    }
  }
}

TEST(NotebookStoreTest, AllDuplicateCorpusResolvesTiesToLowestIds) {
  NotebookStore store;
  const std::vector<std::vector<double>> notebook = {{0.5, -1.5, 3.0},
                                                     {1.0, 0.0, -2.0}};
  std::vector<std::vector<double>> centroids;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(store.Register(i, i, notebook), static_cast<int64_t>(i));
    centroids.push_back(ReferenceCentroid(notebook));
  }
  const auto top = store.TopK(notebook, 3);
  ASSERT_EQ(top.size(), 3u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].entry.notebook_id, i);
    EXPECT_EQ(top[i].distance, 0.0);
  }
  Rng rng(5);
  const auto other = RandomHistory(&rng, 4, 3);
  for (const int k : {1, 7, 100, 150}) {
    ExpectSameMatches(store.TopK(notebook, k),
                      ScalarTopK(centroids, ReferenceCentroid(notebook), k),
                      "self k=" + std::to_string(k));
    ExpectSameMatches(store.TopK(other, k),
                      ScalarTopK(centroids, ReferenceCentroid(other), k),
                      "other k=" + std::to_string(k));
  }
}

TEST(NotebookStoreTest, DegenerateQueries) {
  NotebookStore store;
  const std::vector<std::vector<double>> notebook = {{1.0, 2.0}, {3.0, 4.0}};
  // Empty store: no neighbour exists.
  EXPECT_TRUE(store.TopK(notebook, 3).empty());
  ASSERT_EQ(store.Register(1, 1, notebook), 0);
  // k <= 0 returns nothing; k past the corpus returns the whole corpus.
  EXPECT_TRUE(store.TopK(notebook, 0).empty());
  EXPECT_TRUE(store.TopK(notebook, -2).empty());
  const auto all = store.TopK(notebook, 10);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].distance, 0.0);
  // Too-short sequences are refused and counted.
  EXPECT_EQ(store.Register(2, 2, {{1.0, 1.0}}), -1);
  EXPECT_EQ(store.skipped_registrations(), 1);
  EXPECT_EQ(store.size(), 1u);
}

// -------------------------------------------------- reward / environment

/// Reward signal scoring only diversity, so per-step rewards compare
/// directly against the reference scan.
class DiversityOnlyReward final : public RewardSignal {
 public:
  double Compute(const RewardContext& context) override {
    return DiversityReward(context);
  }
};

/// The diversity reward by its definition: the flat min over every earlier
/// display, rooted and normalized by sqrt(dim).
double ReferenceDiversity(const std::vector<std::vector<double>>& vectors) {
  if (vectors.size() < 2 || vectors.back().empty()) return 0.0;
  const std::vector<double>& current = vectors.back();
  const double min_squared =
      ScalarMinSquared(vectors, current, vectors.size() - 1);
  return Clamp(std::sqrt(min_squared) /
                   std::sqrt(static_cast<double>(current.size())),
               0.0, 1.0);
}

TEST(DiversityScanTest, ThousandDisplayEpisodeMatchesScalarReference) {
  EnvConfig config;
  config.episode_length = 1000;
  config.num_term_bins = 4;
  EdaEnvironment env(MakeDataset("cyber2").value(), config);
  DiversityOnlyReward reward;
  env.SetRewardSignal(&reward);
  env.Reset();
  Rng actions(123);
  int scored = 0;
  for (int step = 0; step < config.episode_length; ++step) {
    const StepOutcome outcome =
        env.Step(SampleRandomAction(env.action_space(), &actions));
    if (!outcome.valid) continue;  // invalid steps take the fixed penalty
    ++scored;
    ASSERT_EQ(outcome.reward, ReferenceDiversity(env.display_vectors()))
        << "step " << step;
  }
  EXPECT_EQ(env.display_vectors().size(), 1001u);
  EXPECT_GT(scored, 100) << "too few valid steps to mean anything";
  RewardContext context;
  context.env = &env;
  EXPECT_EQ(DiversityReward(context),
            ReferenceDiversity(env.display_vectors()));
}

TEST(DiversityScanTest, RestoreSnapshotReplaysRewards) {
  EnvConfig config;
  config.episode_length = 60;
  config.num_term_bins = 4;
  EdaEnvironment env(MakeDataset("cyber2").value(), config);
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

  // Speculative evaluation à la greedy baselines: snapshot, take the
  // suffix, roll back, take it again — rewards must replay bit-for-bit
  // against the restored history (term sampling consumes the env Rng, so
  // pin it alongside).
  const EdaEnvironment::Snapshot snapshot = env.SaveSnapshot();
  const RngState rng_state = env.rng_state();
  std::vector<double> first;
  for (const auto& action : suffix) first.push_back(env.Step(action).reward);
  env.RestoreSnapshot(snapshot);
  env.set_rng_state(rng_state);
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

/// Raw sidecar payloads for the refusal cases: the v2 layout is a u64
/// notebook count, then per notebook u64 session id, u64 seed, u32 length
/// and per display a u32 dimension and its doubles.
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::string NotebookPayload(
    const std::vector<std::vector<std::vector<double>>>& notebooks) {
  std::string payload;
  PutU64(&payload, notebooks.size());
  for (size_t i = 0; i < notebooks.size(); ++i) {
    PutU64(&payload, i);
    PutU64(&payload, i * 10);
    PutU32(&payload, static_cast<uint32_t>(notebooks[i].size()));
    for (const auto& v : notebooks[i]) {
      PutU32(&payload, static_cast<uint32_t>(v.size()));
      payload.append(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(double));
    }
  }
  return payload;
}

TEST(NotebookStoreTest, RefusesVersionOneShortAndTruncatedSidecars) {
  const std::string path = TempPath("notebook_store_refusals.bin");
  const auto good = Notebook({0.5, 0.25}, 3);

  // A v2 file written by hand loads: the layout above is the format.
  ASSERT_TRUE(
      WriteChecksummedFile(path, "ATENA-NBSTORE v2", NotebookPayload({good}))
          .ok());
  Result<NotebookStore> loaded = NotebookStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().sequence(0), good);

  // A v1 file (index-option header before the count) is refused by name.
  std::string v1;
  PutU32(&v1, 8);
  PutU32(&v1, 32);
  PutU32(&v1, 6);
  PutU64(&v1, 2);
  v1 += NotebookPayload({good});
  ASSERT_TRUE(WriteChecksummedFile(path, "ATENA-NBSTORE v1", v1).ok());
  loaded = NotebookStore::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("'v1'"), std::string::npos)
      << loaded.status().ToString();

  // A one-display notebook is below the minimum length.
  ASSERT_TRUE(WriteChecksummedFile(path, "ATENA-NBSTORE v2",
                                   NotebookPayload({good, Notebook({1.0}, 1)}))
                  .ok());
  loaded = NotebookStore::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // A payload cut inside a notebook (CRC-valid, so only the parser sees
  // it) is truncated, as is one that declares more notebooks than it has.
  std::string cut = NotebookPayload({good});
  cut.resize(cut.size() - 4);
  ASSERT_TRUE(WriteChecksummedFile(path, "ATENA-NBSTORE v2", cut).ok());
  loaded = NotebookStore::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  // A declared length the payload cannot hold is truncation too, refused
  // before anything is reserved for it.
  std::string huge_length = NotebookPayload({good});
  huge_length[8 + 8 + 8] = '\xff';
  huge_length[8 + 8 + 8 + 3] = '\x7f';
  ASSERT_TRUE(WriteChecksummedFile(path, "ATENA-NBSTORE v2", huge_length).ok());
  loaded = NotebookStore::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::string short_count = NotebookPayload({good});
  short_count[0] = 2;
  ASSERT_TRUE(WriteChecksummedFile(path, "ATENA-NBSTORE v2", short_count).ok());
  loaded = NotebookStore::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- serve path

SnapshotOptions ServeDiversityOptions() {
  SnapshotOptions options;
  options.env.episode_length = 6;
  options.env.num_term_bins = 4;
  options.policy.hidden = {24, 24};
  return options;
}

std::vector<SessionConfig> DiversityConfigs(int count) {
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

TEST(ServeDiversityTest, TracesIdenticalAcrossThreadsWithSharedStore) {
  auto reward_factory = []() { return std::make_shared<DiversityOnlyReward>(); };
  const auto configs = DiversityConfigs(5);

  // Reference traces: one thread, no notebook store.
  auto reference_snapshot = std::make_shared<PolicySnapshot>(
      MakeDataset("cyber2").value(), ServeDiversityOptions());
  ServeOptions reference_options;
  reference_options.num_threads = 1;
  reference_options.reward_factory = reward_factory;
  SessionManager reference_manager(reference_snapshot, reference_options);
  for (const auto& config : configs) {
    ASSERT_TRUE(reference_manager.Admit(config).ok());
  }
  const auto reference = DrainBySeed(reference_manager);
  ASSERT_EQ(reference.size(), configs.size());

  // With one store shared by the serving threads, traces must match bit
  // for bit at every thread count.
  for (const int threads : {1, 2, 4}) {
    auto snapshot = std::make_shared<PolicySnapshot>(
        MakeDataset("cyber2").value(), ServeDiversityOptions());
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

TEST(ServeDiversityTest, QuerySimilarNotebooksFindsRegisteredSessions) {
  auto snapshot = std::make_shared<PolicySnapshot>(
      MakeDataset("cyber2").value(), ServeDiversityOptions());
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
