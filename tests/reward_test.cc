#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coherency/rules.h"
#include "data/registry.h"
#include "reward/compound.h"
#include "reward/diversity.h"
#include "reward/interestingness.h"

namespace atena {
namespace {

Dataset SmallDataset() {
  auto d = MakeDataset("cyber2");
  EXPECT_TRUE(d.ok());
  return d.value();
}

EnvConfig SmallConfig() {
  EnvConfig config;
  config.episode_length = 8;
  config.num_term_bins = 4;
  return config;
}

RewardContext StepContext(EdaEnvironment* env, const EdaOperation& op) {
  StepOutcome outcome = env->StepOperation(op);
  RewardContext context;
  context.env = env;
  context.op = &env->steps().back().op;
  context.valid = outcome.valid;
  return context;
}

// ----------------------------------------------- group interestingness

TEST(GroupInterestingnessTest, DegenerateGroupingsScoreLow) {
  // One group over everything: nothing was separated.
  EXPECT_LT(GroupInterestingness(1, 1, 1000), 0.15);
  // Singleton groups: nothing was summarized.
  EXPECT_LT(GroupInterestingness(1000, 1, 1000), 0.15);
  // Zero cases.
  EXPECT_DOUBLE_EQ(GroupInterestingness(0, 1, 100), 0.0);
  EXPECT_DOUBLE_EQ(GroupInterestingness(5, 1, 0), 0.0);
}

TEST(GroupInterestingnessTest, CompactCoveringGroupingScoresHigh) {
  EXPECT_GT(GroupInterestingness(8, 1, 1000), 0.7);
  EXPECT_GT(GroupInterestingness(5, 2, 500), 0.5);
}

TEST(GroupInterestingnessTest, DeepGroupingsArePenalized) {
  double shallow = GroupInterestingness(10, 1, 1000);
  double deep = GroupInterestingness(10, 5, 1000);
  EXPECT_GT(shallow, deep * 2);
}

TEST(GroupInterestingnessTest, BoundedToUnitInterval) {
  for (int64_t g : {1, 2, 10, 100, 10000}) {
    for (int a : {1, 2, 4, 6}) {
      double v = GroupInterestingness(g, a, 20000);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

// ---------------------------------------------- filter interestingness

TEST(FilterInterestingnessTest, SelectiveFilterBeatsNoOp) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int src = d.table->FindColumn("source_ip");
  // Selecting the attacker flips the distribution of method/uri/user_agent.
  auto strong = StepContext(&env, EdaOperation::Filter(
                                      src, CompareOp::kEq,
                                      Value(std::string("203.0.113.99"))));
  double strong_score = OperationInterestingness(strong);
  EXPECT_GT(strong_score, 0.5);

  env.Reset();
  int status = d.table->FindColumn("status");
  // status != 404 keeps ~94% of rows: barely any deviation.
  auto weak = StepContext(&env, EdaOperation::Filter(
                                    status, CompareOp::kNeq,
                                    Value(int64_t{404})));
  double weak_score = OperationInterestingness(weak);
  EXPECT_GT(strong_score, weak_score);
}

TEST(FilterInterestingnessTest, BackAndInvalidScoreZero) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  auto back = StepContext(&env, EdaOperation::Back());
  EXPECT_DOUBLE_EQ(OperationInterestingness(back), 0.0);
}

TEST(FilterInterestingnessTest, GroupedDisplayUsesAggregatedAttribute) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  int bytes = d.table->FindColumn("response_bytes");
  env.StepOperation(EdaOperation::Group(method, AggFunc::kAvg, bytes));
  auto ctx = StepContext(&env, EdaOperation::Filter(
                                   method, CompareOp::kEq,
                                   Value(std::string("POST"))));
  double score = OperationInterestingness(ctx);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(GroupOperationTest, GroupScoreMatchesDirectComputation) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  auto ctx = StepContext(&env, EdaOperation::Group(method, AggFunc::kCount,
                                                   -1));
  const Display& display = env.current_display();
  double expected = GroupInterestingness(
      static_cast<int64_t>(display.grouped->groups.size()),
      1, static_cast<int64_t>(display.rows.size()));
  EXPECT_DOUBLE_EQ(OperationInterestingness(ctx), expected);
}

// ------------------------------------------ memoized filter deviation

EnvConfig MemoConfig(bool cache) {
  EnvConfig config = SmallConfig();
  config.display_cache_enabled = cache;
  return config;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// FilterInterestingness of the environment's current display against its
/// previous one.
double CurrentFilterScore(const EdaEnvironment& env) {
  return FilterInterestingness(env, env.current_display(),
                               env.previous_display());
}

/// The Deviation-section key of the environment's current display.
uint64_t CurrentDeviationKey(const EdaEnvironment& env) {
  const Display& current = env.current_display();
  return FilterDeviationKey(current.rows_signature,
                            env.previous_display().rows_signature,
                            current.filters.back().column,
                            env.config().stats_row_cap);
}

EdaOperation MethodFilter(const Table& table) {
  return EdaOperation::Filter(table.FindColumn("method"), CompareOp::kEq,
                              Value(std::string("GET")));
}

// The first score of a filtered display computes the deviation and stores
// it; the second is one lookup of that entry. Both equal the cache-off
// score bit for bit.
TEST(FilterDeviationMemoTest, MissAndHitMatchCacheOffBits) {
  Dataset d = SmallDataset();
  EdaEnvironment cached(d, MemoConfig(true));
  EdaEnvironment uncached(d, MemoConfig(false));
  ASSERT_TRUE(cached.StepOperation(MethodFilter(*d.table)).valid);
  ASSERT_TRUE(uncached.StepOperation(MethodFilter(*d.table)).valid);
  const double want = CurrentFilterScore(uncached);
  EXPECT_GT(want, 0.0);

  DisplayCache& cache = *cached.display_cache();
  const uint64_t key = CurrentDeviationKey(cached);
  ASSERT_FALSE(cache.GetDeviation(key).has_value());
  const double miss = CurrentFilterScore(cached);
  EXPECT_EQ(Bits(miss), Bits(want));
  ASSERT_TRUE(cache.GetDeviation(key).has_value());

  const DisplayCacheStats before = cache.stats();
  const double hit = CurrentFilterScore(cached);
  const DisplayCacheStats after = cache.stats();
  EXPECT_EQ(Bits(hit), Bits(want));
  EXPECT_EQ(after.hits - before.hits, 1u);  // the deviation, nothing else
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);
}

// A then B and B then A select one row set (its signature is commutative)
// but deviate from different parents: each order gets its own entry, equal
// to its cache-off score. Filters on two columns also exclude different
// columns; two filters on one column differ only in the parent.
TEST(FilterDeviationMemoTest, ReorderedFiltersKeepSeparateEntries) {
  Dataset d = SmallDataset();
  const int bytes = d.table->FindColumn("response_bytes");
  const EdaOperation status_not_200 = EdaOperation::Filter(
      d.table->FindColumn("status"), CompareOp::kNeq, Value(int64_t{200}));
  const std::vector<std::pair<EdaOperation, EdaOperation>> pairs = {
      {MethodFilter(*d.table), status_not_200},
      {EdaOperation::Filter(bytes, CompareOp::kGt, Value(int64_t{1000})),
       EdaOperation::Filter(bytes, CompareOp::kLe, Value(int64_t{50000}))}};
  EdaEnvironment cached(d, MemoConfig(true));
  EdaEnvironment uncached(d, MemoConfig(false));
  auto score_after = [](EdaEnvironment* env, const EdaOperation& first,
                        const EdaOperation& second) {
    env->Reset();
    EXPECT_TRUE(env->StepOperation(first).valid);
    EXPECT_TRUE(env->StepOperation(second).valid);
    return CurrentFilterScore(*env);
  };
  for (const auto& [a, b] : pairs) {
    const std::string context =
        a.Describe(*d.table) + ", " + b.Describe(*d.table);
    const double ab_off = score_after(&uncached, a, b);
    const double ba_off = score_after(&uncached, b, a);
    // Distinct values, so an entry shared by both orders would show.
    ASSERT_NE(Bits(ab_off), Bits(ba_off)) << context;

    EXPECT_EQ(Bits(score_after(&cached, a, b)), Bits(ab_off)) << context;
    const uint64_t rows_ab = cached.current_display().rows_signature;
    const uint64_t key_ab = CurrentDeviationKey(cached);
    EXPECT_EQ(Bits(score_after(&cached, b, a)), Bits(ba_off)) << context;
    EXPECT_EQ(cached.current_display().rows_signature, rows_ab) << context;
    EXPECT_NE(CurrentDeviationKey(cached), key_ab) << context;
    // Both entries stay resident: a second pass hits each of them.
    EXPECT_EQ(Bits(score_after(&cached, a, b)), Bits(ab_off)) << context;
    EXPECT_EQ(Bits(score_after(&cached, b, a)), Bits(ba_off)) << context;
  }
}

/// Rewards every step with OperationInterestingness alone.
class InterestingnessSignal : public RewardSignal {
 public:
  double Compute(const RewardContext& context) override {
    return OperationInterestingness(context);
  }
};

/// Bits of every step reward of a fixed random-action script.
std::vector<uint64_t> ScriptRewardBits(EdaEnvironment* env, uint64_t seed) {
  InterestingnessSignal signal;
  env->SetRewardSignal(&signal);
  Rng rng(seed);
  std::vector<uint64_t> bits;
  for (int episode = 0; episode < 12; ++episode) {
    env->Reset();
    while (!env->done()) {
      bits.push_back(
          Bits(env->Step(SampleRandomAction(env->action_space(), &rng))
                   .reward));
    }
  }
  env->SetRewardSignal(nullptr);
  return bits;
}

// Environments stepping on threads share one cache, so they fill and hit
// each other's deviation entries: every reward equals the serial,
// cache-off run's.
TEST(FilterDeviationMemoTest, SharedCacheUnderConcurrentStepping) {
  Dataset d = SmallDataset();
  std::vector<std::vector<uint64_t>> serial;
  for (uint64_t seed = 0; seed < 2; ++seed) {
    EdaEnvironment env(d, MemoConfig(false));
    serial.push_back(ScriptRewardBits(&env, 300 + seed));
  }
  auto shared = std::make_shared<DisplayCache>(
      DisplayCache::Options{.capacity = 4096, .shards = 4});
  std::vector<std::vector<uint64_t>> parallel(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < parallel.size(); ++t) {
    threads.emplace_back([&, t] {
      EdaEnvironment env(d, MemoConfig(true));
      env.SetDisplayCache(shared);
      parallel[t] = ScriptRewardBits(&env, 300 + t % 2);
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < parallel.size(); ++t) {
    EXPECT_EQ(parallel[t], serial[t % 2]) << "thread " << t;
  }
}

// ------------------------------------------------------------ diversity

TEST(DiversityTest, FirstDisplayScoresZero) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  RewardContext ctx;
  ctx.env = &env;
  EXPECT_DOUBLE_EQ(DiversityReward(ctx), 0.0);
}

TEST(DiversityTest, DuplicateDisplayScoresZero) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  StepContext(&env, EdaOperation::Group(method, AggFunc::kCount, -1));
  // BACK returns to the root display, which is already in the history.
  auto ctx = StepContext(&env, EdaOperation::Back());
  EXPECT_DOUBLE_EQ(DiversityReward(ctx), 0.0);
}

TEST(DiversityTest, NovelDisplayScoresPositive) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int src = d.table->FindColumn("source_ip");
  auto ctx = StepContext(&env, EdaOperation::Filter(
                                   src, CompareOp::kEq,
                                   Value(std::string("203.0.113.99"))));
  EXPECT_GT(DiversityReward(ctx), 0.0);
  EXPECT_LE(DiversityReward(ctx), 1.0);
}

// ------------------------------------------------------------- compound

TEST(CompoundRewardTest, RequiresClassifierWhenCoherencyEnabled) {
  CompoundReward::Options options;
  options.enable_coherency = false;
  CompoundReward reward(nullptr, options);  // must not crash
  SUCCEED();
}

TEST(CompoundRewardTest, ComponentsAreSwitchable) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  CompoundReward::Options options;
  options.enable_diversity = false;
  options.enable_coherency = false;
  CompoundReward reward(nullptr, options);
  env.SetRewardSignal(&reward);
  env.Reset();
  int method = d.table->FindColumn("method");
  env.StepOperation(EdaOperation::Group(method, AggFunc::kCount, -1));
  EXPECT_DOUBLE_EQ(reward.last_components().diversity, 0.0);
  EXPECT_DOUBLE_EQ(reward.last_components().coherency, 0.0);
  EXPECT_GT(reward.last_components().interestingness, 0.0);
}

TEST(CompoundRewardTest, CalibrationBalancesComponentShares) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  auto reward = MakeStandardReward(&env);
  ASSERT_TRUE(reward.ok());
  env.SetRewardSignal(reward.value().get());

  // Replay random sessions and accumulate weighted component magnitudes.
  Rng rng(31);
  double sum_i = 0, sum_d = 0, sum_c = 0;
  for (int episode = 0; episode < 10; ++episode) {
    env.Reset();
    while (!env.done()) {
      StepOutcome outcome = env.Step(SampleRandomAction(env.action_space(),
                                                        &rng));
      if (!outcome.valid) continue;
      const auto& c = reward.value()->last_components();
      const auto& o = reward.value()->options();
      sum_i += std::abs(o.weight_interestingness * c.interestingness);
      sum_d += std::abs(o.weight_diversity * c.diversity);
      sum_c += std::abs(o.weight_coherency * c.coherency);
    }
  }
  const double total = sum_i + sum_d + sum_c;
  ASSERT_GT(total, 0.0);
  // Paper §6.1: no component below 10% of the total reward mass.
  EXPECT_GT(sum_i / total, 0.10);
  EXPECT_GT(sum_d / total, 0.10);
  EXPECT_GT(sum_c / total, 0.10);
}

TEST(CompoundRewardTest, IncoherentOperationsArePenalized) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  auto reward = MakeStandardReward(&env);
  ASSERT_TRUE(reward.ok());
  env.SetRewardSignal(reward.value().get());
  env.Reset();
  int id_col = d.table->FindColumn("request_id");
  // Filtering on a row id: id-like + (usually) tiny effect.
  StepOutcome outcome = env.StepOperation(EdaOperation::Filter(
      id_col, CompareOp::kEq, Value(int64_t{17})));
  ASSERT_TRUE(outcome.valid);
  EXPECT_LT(reward.value()->last_components().coherency, 0.0);
}

TEST(CompoundRewardTest, MakeStandardRewardLeavesEnvReset) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  auto reward = MakeStandardReward(&env);
  ASSERT_TRUE(reward.ok());
  EXPECT_EQ(env.step_count(), 0);
  EXPECT_EQ(env.display_history().size(), 1u);
}

}  // namespace
}  // namespace atena
