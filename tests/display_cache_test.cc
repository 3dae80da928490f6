// Tests of the display-execution memoization cache: LRU/statistics
// mechanics, signature canonicality, and the determinism guarantee — a
// cache hit must be bit-identical to a recompute, whether the cache is
// private, disabled, or shared by every actor of a parallel trainer.
#include "eda/display_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/twofold_policy.h"
#include "data/registry.h"
#include "eda/environment.h"
#include "reward/compound.h"
#include "rl/parallel_trainer.h"

namespace atena {
namespace {

std::shared_ptr<const std::vector<int32_t>> MakeRows(int32_t n) {
  auto rows = std::make_shared<std::vector<int32_t>>();
  for (int32_t i = 0; i < n; ++i) rows->push_back(i);
  return rows;
}

TEST(DisplayCacheTest, RoundTripAndStats) {
  DisplayCache cache({.capacity = 16, .shards = 2});
  EXPECT_EQ(cache.GetRows(42), nullptr);  // miss
  cache.PutRows(42, MakeRows(5));
  auto hit = cache.GetRows(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 5u);

  const DisplayCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);

  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.GetRows(42), nullptr);
}

TEST(DisplayCacheTest, EvictsLeastRecentlyUsed) {
  DisplayCache cache({.capacity = 4, .shards = 1});
  for (uint64_t key = 1; key <= 4; ++key) cache.PutRows(key, MakeRows(1));
  // Touch key 1 so key 2 becomes the least recently used.
  ASSERT_NE(cache.GetRows(1), nullptr);
  cache.PutRows(5, MakeRows(1));

  EXPECT_EQ(cache.GetRows(2), nullptr);  // evicted
  EXPECT_NE(cache.GetRows(1), nullptr);  // kept: recently used
  EXPECT_NE(cache.GetRows(5), nullptr);
  const DisplayCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 4u);
}

TEST(DisplayCacheTest, ByteBudgetBoundsResidentMemory) {
  // Million-row tables make a single cached row set ~4 MB, so the entry cap
  // alone cannot bound memory. With a byte budget the cache must stay under
  // it no matter how many large values are inserted.
  constexpr size_t kBudget = 1 << 20;  // 1 MB
  DisplayCache cache({.capacity = 1 << 16, .max_bytes = kBudget,
                      .shards = 1});
  // 64 row sets of 100k int32 rows each = ~25.6 MB offered.
  for (uint64_t key = 1; key <= 64; ++key) {
    cache.PutRows(key, MakeRows(100'000));
    EXPECT_LE(cache.stats().resident_bytes, kBudget) << "after key " << key;
  }
  const DisplayCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LE(stats.resident_bytes, kBudget);
  // The newest entry is resident, the oldest was evicted (LRU order).
  EXPECT_NE(cache.GetRows(64), nullptr);
  EXPECT_EQ(cache.GetRows(1), nullptr);

  // Clearing releases the accounting along with the values.
  cache.Clear();
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(DisplayCacheTest, OversizedEntryStaysResidentAloneWithoutThrashing) {
  // A single value larger than the whole budget is kept (an empty cache
  // would recompute forever) until the next insert displaces it.
  DisplayCache cache({.capacity = 8, .max_bytes = 1024, .shards = 1});
  cache.PutRows(1, MakeRows(10'000));  // ~40 KB >> 1 KB budget
  EXPECT_NE(cache.GetRows(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.PutRows(2, MakeRows(10'000));
  // The older oversized entry is evicted; the newer one survives alone.
  EXPECT_EQ(cache.GetRows(1), nullptr);
  EXPECT_NE(cache.GetRows(2), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(DisplayCacheTest, ResidentBytesTracksAllSections) {
  DisplayCache cache({.capacity = 64, .shards = 1});
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  cache.PutRows(1, MakeRows(1000));
  const uint64_t after_rows = cache.stats().resident_bytes;
  EXPECT_GE(after_rows, 1000 * sizeof(int32_t));
  cache.PutVector(2, std::make_shared<const std::vector<double>>(500, 1.0));
  const uint64_t after_vec = cache.stats().resident_bytes;
  EXPECT_GE(after_vec, after_rows + 500 * sizeof(double));
  auto grouped = std::make_shared<GroupedResult>();
  grouped->groups.resize(3);
  cache.PutGrouped(3, grouped);
  EXPECT_GT(cache.stats().resident_bytes, after_vec);
  // Unbounded by default: nothing was evicted.
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(DisplayCacheTest, GroupedAndTokenChargesFollowTheirLayouts) {
  // A group is a flat 24-byte record (member count, aggregate, member row)
  // and a token a 16-byte (cell key, count) pair: neither holds a heap
  // payload, so an entry's charge grows by exactly one record per slot of
  // capacity. A grouped entry's header strings are charged by length.
  auto grouped_charge = [](size_t groups, const std::string& agg_name) {
    DisplayCache cache({.capacity = 8, .shards = 1});
    auto grouped = std::make_shared<GroupedResult>();
    grouped->spec.group_columns = {0};
    grouped->key_names = {"source_ip"};
    grouped->agg_name = agg_name;
    grouped->groups.reserve(groups);
    grouped->groups.resize(groups);
    cache.PutGrouped(1, grouped);
    return cache.stats().resident_bytes;
  };
  const uint64_t empty = grouped_charge(0, "COUNT(*)");
  EXPECT_GE(empty, sizeof(GroupedResult));
  EXPECT_EQ(grouped_charge(1000, "COUNT(*)") - empty, 1000 * sizeof(Group));
  EXPECT_EQ(grouped_charge(0, "AVG(response_bytes)") - empty,
            std::string("AVG(response_bytes)").size() -
                std::string("COUNT(*)").size());

  auto tokens_charge = [](size_t tokens) {
    DisplayCache cache({.capacity = 8, .shards = 1});
    auto list = std::make_shared<std::vector<TokenFreq>>();
    list->reserve(tokens);
    list->resize(tokens);
    cache.PutTokens(1, list);
    return cache.stats().resident_bytes;
  };
  EXPECT_EQ(tokens_charge(1000) - tokens_charge(0), 1000 * sizeof(TokenFreq));
}

TEST(DisplayCacheTest, DeviationEntryIsChargedOneDouble) {
  // The Deviation section holds one double per entry: its charge is the
  // per-entry overhead that an empty vector entry is charged, plus 8 bytes.
  DisplayCache empty_vector({.capacity = 8, .shards = 1});
  empty_vector.PutVector(1, std::make_shared<const std::vector<double>>());
  DisplayCache cache({.capacity = 8, .shards = 1});
  EXPECT_FALSE(cache.GetDeviation(1).has_value());
  cache.PutDeviation(1, 0.375);
  ASSERT_TRUE(cache.GetDeviation(1).has_value());
  EXPECT_EQ(*cache.GetDeviation(1), 0.375);
  EXPECT_EQ(cache.stats().resident_bytes,
            empty_vector.stats().resident_bytes + sizeof(double));
}

TEST(DisplayCacheTest, DeviationKeyIsOrderedAndUsesEveryInput) {
  const uint64_t rows = 0x9E3779B97F4A7C15ULL;
  const uint64_t previous = 0xD1B54A32D192ED03ULL;
  const uint64_t key = FilterDeviationKey(rows, previous, 2, 4096);
  // The display and its predecessor play different roles.
  EXPECT_NE(key, FilterDeviationKey(previous, rows, 2, 4096));
  EXPECT_NE(key, FilterDeviationKey(rows, previous + 1, 2, 4096));
  EXPECT_NE(key, FilterDeviationKey(rows, previous, 3, 4096));
  EXPECT_NE(key, FilterDeviationKey(rows, previous, -1, 4096));
  EXPECT_NE(key, FilterDeviationKey(rows, previous, 2, 512));
}

TEST(DisplayCacheTest, FilterSignatureIsOrderIndependent) {
  FilterPred a{/*column=*/0, CompareOp::kEq, Value(std::string("SYN"))};
  FilterPred b{/*column=*/2, CompareOp::kGe, Value(int64_t{80})};
  const uint64_t root = 0x9E3779B97F4A7C15ULL;
  // A filter chain selects the conjunction of its predicate set, so the
  // signature must not depend on application order...
  EXPECT_EQ(FilterChildSignature(FilterChildSignature(root, a), b),
            FilterChildSignature(FilterChildSignature(root, b), a));
  // ...but must depend on the predicates themselves.
  EXPECT_NE(FilterChildSignature(root, a), FilterChildSignature(root, b));
  FilterPred a_neq = a;
  a_neq.op = CompareOp::kNeq;
  EXPECT_NE(FilterChildSignature(root, a),
            FilterChildSignature(root, a_neq));
}

EnvConfig CacheTestConfig(uint64_t seed, bool cache_enabled) {
  EnvConfig config;
  config.episode_length = 8;
  config.num_term_bins = 4;
  config.seed = seed;
  config.display_cache_enabled = cache_enabled;
  return config;
}

/// Steps `env` through `actions` and returns (observations ⧺ rewards)
/// flattened, the full bitwise-comparable trace of the episode.
std::vector<double> RunTrace(EdaEnvironment* env,
                             const std::vector<EnvAction>& actions) {
  std::vector<double> trace = env->Reset();
  for (const EnvAction& action : actions) {
    StepOutcome out = env->Step(action);
    trace.insert(trace.end(), out.observation.begin(), out.observation.end());
    trace.push_back(out.reward);
    trace.push_back(out.valid ? 1.0 : 0.0);
  }
  return trace;
}

std::vector<EnvAction> RandomActions(const ActionSpace& space, uint64_t seed,
                                     int count) {
  Rng rng(seed);
  std::vector<EnvAction> actions;
  for (int i = 0; i < count; ++i) {
    actions.push_back(SampleRandomAction(space, &rng));
  }
  return actions;
}

// Statistics counters under concurrency: hammer one cache from several
// threads while the main thread polls stats(). The counters are atomics
// aggregated per shard, so the totals must add up exactly once the workers
// join, every interim poll must be monotone, and the run must be clean
// under TSan (scripts/check.sh sweeps this binary).
TEST(DisplayCacheTest, ConcurrentStatsAreExactAndMonotone) {
  DisplayCache cache({.capacity = 64, .shards = 4});
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      // Every 4th op touches a single shared hot key that all threads keep
      // refreshing, so it can never age out of its 64-entry shard and hits
      // are guaranteed even when the scheduler serialises the workers
      // (1-CPU boxes, where a strided walk over ~1064 keys alone revisits
      // every key only after it has been evicted). The remaining ops cycle
      // through the cold keys to keep misses and evictions flowing.
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key =
            (i % 4 == 0) ? 0
                         : static_cast<uint64_t>((i * (t + 3)) % 1064);
        if (cache.GetRows(key) == nullptr) {
          cache.PutRows(key, MakeRows(static_cast<int32_t>(key % 7 + 1)));
        }
      }
    });
  }
  uint64_t last_lookups = 0;
  // Poll until every worker's lookups are visible (each op is exactly one
  // GetRows, so the total converges to kThreads * kOpsPerThread).
  while (true) {
    const DisplayCacheStats stats = cache.stats();
    const uint64_t lookups = stats.hits + stats.misses;
    EXPECT_GE(lookups, last_lookups);
    EXPECT_LE(stats.entries, 64u);
    last_lookups = lookups;
    if (lookups >= static_cast<uint64_t>(kThreads * kOpsPerThread)) break;
    std::this_thread::yield();
  }
  for (auto& worker : workers) worker.join();

  const DisplayCacheStats stats = cache.stats();
  // Every GetRows call is counted exactly once, no lost updates.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kOpsPerThread));
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 64u);
}

// Snapshot() takes every shard lock before reading anything, so a snapshot
// is one consistent instant: its per-shard occupancy breakdown must always
// sum to its own totals, even while writer threads keep mutating the cache
// (stats(), by contrast, may mix instants across shards). Also swept by
// the TSan run in scripts/check.sh.
TEST(DisplayCacheTest, SnapshotIsInternallyConsistentUnderLoad) {
  DisplayCache cache({.capacity = 64, .shards = 4});
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>((i * (t + 3)) % 1064);
        if (cache.GetRows(key) == nullptr) {
          cache.PutRows(key, MakeRows(static_cast<int32_t>(key % 7 + 1)));
        }
      }
    });
  }
  uint64_t last_lookups = 0;
  while (true) {
    const DisplayCacheSnapshot snapshot = cache.Snapshot();
    ASSERT_EQ(snapshot.shard_entries.size(), 4u);
    uint64_t shard_sum = 0;
    for (uint64_t entries : snapshot.shard_entries) shard_sum += entries;
    EXPECT_EQ(snapshot.totals.entries, shard_sum);
    EXPECT_LE(snapshot.totals.entries, 64u);
    const uint64_t lookups = snapshot.totals.hits + snapshot.totals.misses;
    EXPECT_GE(lookups, last_lookups);
    last_lookups = lookups;
    if (lookups >= static_cast<uint64_t>(kThreads * kOpsPerThread)) break;
    std::this_thread::yield();
  }
  for (auto& worker : workers) worker.join();

  // Quiesced: the snapshot and the unlocked aggregate must agree exactly.
  const DisplayCacheSnapshot snapshot = cache.Snapshot();
  const DisplayCacheStats stats = cache.stats();
  EXPECT_EQ(snapshot.totals.hits, stats.hits);
  EXPECT_EQ(snapshot.totals.misses, stats.misses);
  EXPECT_EQ(snapshot.totals.evictions, stats.evictions);
  EXPECT_EQ(snapshot.totals.entries, stats.entries);
  EXPECT_EQ(snapshot.totals.hits + snapshot.totals.misses,
            static_cast<uint64_t>(kThreads * kOpsPerThread));
}

TEST(CacheDeterminismTest, CachedEpisodesMatchUncachedBitwise) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  EdaEnvironment cached(dataset.value(), CacheTestConfig(3, true));
  EdaEnvironment uncached(dataset.value(), CacheTestConfig(3, false));
  ASSERT_NE(cached.display_cache(), nullptr);
  ASSERT_EQ(uncached.display_cache(), nullptr);
  auto cached_reward = MakeStandardReward(&cached);
  auto uncached_reward = MakeStandardReward(&uncached);
  ASSERT_TRUE(cached_reward.ok());
  ASSERT_TRUE(uncached_reward.ok());
  cached.SetRewardSignal(cached_reward.value().get());
  uncached.SetRewardSignal(uncached_reward.value().get());

  // Several episodes so later ones replay cached prefixes of earlier ones.
  for (uint64_t episode = 0; episode < 6; ++episode) {
    auto actions = RandomActions(cached.action_space(), 100 + episode, 8);
    EXPECT_EQ(RunTrace(&cached, actions), RunTrace(&uncached, actions))
        << "episode " << episode;
  }
  // The cache must actually have been exercised for this test to mean
  // anything.
  EXPECT_GT(cached.display_cache()->stats().hits, 0u);
}

TEST(CacheDeterminismTest, SharedCacheAcrossActorsMatchesUncached) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  constexpr int kActors = 4;
  std::vector<std::unique_ptr<EdaEnvironment>> shared, solo;
  auto cache = std::make_shared<DisplayCache>(DisplayCache::Options{});
  for (int i = 0; i < kActors; ++i) {
    shared.push_back(std::make_unique<EdaEnvironment>(
        dataset.value(), CacheTestConfig(uint64_t(i + 1), true)));
    shared.back()->SetDisplayCache(cache);
    solo.push_back(std::make_unique<EdaEnvironment>(
        dataset.value(), CacheTestConfig(uint64_t(i + 1), false)));
  }

  // Interleave actors within each episode the way a synchronous parallel
  // trainer does, so actors constantly hit entries their peers populated.
  for (uint64_t episode = 0; episode < 4; ++episode) {
    std::vector<std::vector<EnvAction>> actions;
    std::vector<std::vector<double>> shared_traces(kActors), solo_traces(
                                                                 kActors);
    for (int i = 0; i < kActors; ++i) {
      actions.push_back(RandomActions(shared[i]->action_space(),
                                      200 + episode * kActors + uint64_t(i),
                                      8));
      shared_traces[i] = shared[i]->Reset();
      solo_traces[i] = solo[i]->Reset();
    }
    for (size_t step = 0; step < 8; ++step) {
      for (int i = 0; i < kActors; ++i) {
        StepOutcome a = shared[i]->Step(actions[i][step]);
        StepOutcome b = solo[i]->Step(actions[i][step]);
        shared_traces[i].insert(shared_traces[i].end(),
                                a.observation.begin(), a.observation.end());
        shared_traces[i].push_back(a.reward);
        solo_traces[i].insert(solo_traces[i].end(), b.observation.begin(),
                              b.observation.end());
        solo_traces[i].push_back(b.reward);
      }
    }
    for (int i = 0; i < kActors; ++i) {
      EXPECT_EQ(shared_traces[i], solo_traces[i])
          << "actor " << i << " episode " << episode;
    }
  }
  EXPECT_GT(cache->stats().hits, 0u);
}

TrainingResult TrainFourActors(const Dataset& dataset, bool cache_enabled) {
  std::vector<std::unique_ptr<EdaEnvironment>> owned;
  std::vector<EdaEnvironment*> envs;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    owned.push_back(std::make_unique<EdaEnvironment>(
        dataset, CacheTestConfig(seed, cache_enabled)));
    envs.push_back(owned.back().get());
  }
  TwofoldPolicy::Options policy_options;
  policy_options.hidden = {8};
  policy_options.seed = 5;
  TwofoldPolicy policy(envs[0]->observation_dim(), envs[0]->action_space(),
                       policy_options);
  TrainerOptions options;
  options.total_steps = 640;
  options.rollout_length = 64;
  options.final_eval_episodes = 2;
  options.seed = 17;
  ParallelPpoTrainer trainer(envs, &policy, options);
  return trainer.Train();
}

TEST(CacheDeterminismTest, ParallelTrainerIdenticalWithAndWithoutCache) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  TrainingResult with_cache = TrainFourActors(dataset.value(), true);
  TrainingResult without_cache = TrainFourActors(dataset.value(), false);

  EXPECT_EQ(with_cache.episodes, without_cache.episodes);
  EXPECT_EQ(with_cache.final_mean_reward, without_cache.final_mean_reward);
  ASSERT_EQ(with_cache.curve.size(), without_cache.curve.size());
  for (size_t i = 0; i < with_cache.curve.size(); ++i) {
    EXPECT_EQ(with_cache.curve[i].mean_episode_reward,
              without_cache.curve[i].mean_episode_reward)
        << "curve point " << i;
  }
  ASSERT_EQ(with_cache.best_episode_ops.size(),
            without_cache.best_episode_ops.size());
}

}  // namespace
}  // namespace atena
