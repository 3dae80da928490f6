// Property-style tests: invariants that must hold for *any* action
// sequence, checked over randomized episodes and parameter sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "core/twofold_policy.h"
#include "dataframe/csv.h"
#include "data/registry.h"
#include "eval/metrics.h"
#include "eval/view_signature.h"
#include "reward/diversity.h"
#include "reward/interestingness.h"
#include "support/reference_metrics.h"

namespace atena {
namespace {

// ------------------------------------------------ environment invariants

class EnvInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnvInvariantTest, RandomEpisodesPreserveInvariants) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  EnvConfig config;
  config.episode_length = 15;
  config.num_term_bins = 6;
  config.seed = GetParam();
  EdaEnvironment env(dataset.value(), config);
  Rng rng(GetParam() * 31 + 7);

  env.Reset();
  const size_t total_rows =
      static_cast<size_t>(dataset.value().table->num_rows());
  while (!env.done()) {
    StepOutcome outcome = env.Step(SampleRandomAction(env.action_space(),
                                                      &rng));
    const Display& display = env.current_display();

    // 1. The display's rows are always a subset of the table, sorted and
    //    unique (filters only ever narrow).
    EXPECT_LE(display.rows.size(), total_rows);
    EXPECT_FALSE(display.rows.empty());
    for (size_t i = 1; i < display.rows.size(); ++i) {
      EXPECT_LT(display.rows[i - 1], display.rows[i]);
    }

    // 2. Grouped state is consistent: grouped result exists iff group
    //    columns are set; groups partition the display rows.
    EXPECT_EQ(display.is_grouped(), display.grouped != nullptr);
    if (display.grouped) {
      int64_t partitioned = 0;
      for (const auto& g : display.grouped->groups) partitioned += g.size;
      EXPECT_EQ(partitioned, static_cast<int64_t>(display.rows.size()));
      EXPECT_LE(display.group_columns.size(),
                static_cast<size_t>(config.max_group_attrs));
    }

    // 3. Histories stay aligned: one display and one vector per step + root.
    EXPECT_EQ(env.display_history().size(),
              static_cast<size_t>(env.step_count()) + 1);
    EXPECT_EQ(env.display_vectors().size(), env.display_history().size());

    // 4. Observation values are finite and bounded.
    for (double v : outcome.observation) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, -1e-9);
      EXPECT_LE(v, 1.0 + 1e-9);
    }

    // 5. Invalid steps repeat the display exactly.
    if (!outcome.valid) {
      const auto& history = env.display_history();
      EXPECT_EQ(history[history.size() - 1].rows.size(),
                history[history.size() - 2].rows.size());
    }
  }
  EXPECT_EQ(env.steps().size(), static_cast<size_t>(config.episode_length));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvInvariantTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------- reward invariants

class RewardInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewardInvariantTest, ComponentsBoundedOnRandomEpisodes) {
  auto dataset = MakeDataset("flights3");
  ASSERT_TRUE(dataset.ok());
  EnvConfig config;
  config.episode_length = 10;
  config.seed = GetParam();
  EdaEnvironment env(dataset.value(), config);
  Rng rng(GetParam() * 97 + 3);
  env.Reset();
  while (!env.done()) {
    StepOutcome outcome = env.Step(SampleRandomAction(env.action_space(),
                                                      &rng));
    RewardContext context;
    context.env = &env;
    context.op = &env.steps().back().op;
    context.valid = outcome.valid;
    double interest = OperationInterestingness(context);
    double diversity = DiversityReward(context);
    EXPECT_GE(interest, 0.0);
    EXPECT_LE(interest, 1.0);
    EXPECT_GE(diversity, 0.0);
    EXPECT_LE(diversity, 1.0);
    EXPECT_TRUE(std::isfinite(interest));
    EXPECT_TRUE(std::isfinite(diversity));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewardInvariantTest,
                         ::testing::Values(11, 22, 33, 44));

// ----------------------------------------------------- metric invariants

/// Random view-signature generator.
ViewSignature RandomView(Rng* rng) {
  const char* filters[] = {"a == 1", "b == 2", "c > 3", "d contains x"};
  const char* groups[] = {"g1", "g2", "g3"};
  const char* aggs[] = {"", "COUNT(*)", "AVG(x)", "SUM(y)"};
  ViewSignature sig;
  for (int i = 0; i < 4; ++i) {
    if (rng->NextBool(0.4)) sig.filters.push_back(filters[i]);
  }
  for (int i = 0; i < 3; ++i) {
    if (rng->NextBool(0.4)) sig.groups.push_back(groups[i]);
  }
  sig.aggregation = aggs[rng->NextBounded(4)];
  std::sort(sig.filters.begin(), sig.filters.end());
  std::sort(sig.groups.begin(), sig.groups.end());
  return sig;
}

class MetricInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricInvariantTest, ScoresBoundedAndIdentityMaximal) {
  Rng rng(GetParam());
  std::vector<ViewSignature> a, b;
  for (int i = 0; i < 6; ++i) a.push_back(RandomView(&rng));
  for (int i = 0; i < 8; ++i) b.push_back(RandomView(&rng));
  std::vector<std::vector<ViewSignature>> gold = {b};

  AedaScores scores = ComputeAedaScores(a, gold);
  for (double s : {scores.precision, scores.t_bleu_1, scores.t_bleu_2,
                   scores.t_bleu_3, scores.eda_sim}) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-9);
  }
  // Identity dominates any cross-comparison.
  EXPECT_GE(EdaSim(a, a), EdaSim(a, b));
  EXPECT_NEAR(EdaSim(a, a), 1.0, 1e-9);
  // View similarity is symmetric.
  for (const auto& x : a) {
    for (const auto& y : b) {
      EXPECT_NEAR(ViewSimilarity(x, y), ViewSimilarity(y, x), 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricInvariantTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// ----------------------------------------------------- policy invariants

class PolicyInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PolicyInvariantTest, LogProbsConsistentAcrossRandomObservations) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  EnvConfig config;
  EdaEnvironment env(dataset.value(), config);
  TwofoldPolicy::Options options;
  options.hidden = {12};
  options.seed = GetParam();
  TwofoldPolicy policy(env.observation_dim(), env.action_space(), options);
  Rng rng(GetParam() + 1);

  std::vector<double> obs(static_cast<size_t>(env.observation_dim()));
  for (int trial = 0; trial < 20; ++trial) {
    for (double& v : obs) v = rng.NextDouble();
    PolicyStep step = policy.Act(obs, &rng);
    // log π(a|s) ≤ 0 and finite; value finite.
    EXPECT_LE(step.log_prob, 1e-9);
    EXPECT_TRUE(std::isfinite(step.log_prob));
    EXPECT_TRUE(std::isfinite(step.value));
    // Re-evaluating the same (obs, action) reproduces the rollout values;
    // the joint entropy it reports is ≥ 0 and finite.
    Matrix batch = Matrix::FromRow(obs);
    BatchEvaluation eval = policy.ForwardBatch(batch, {step.action});
    EXPECT_NEAR(eval.log_probs[0], step.log_prob, 1e-9);
    EXPECT_NEAR(eval.values[0], step.value, 1e-9);
    EXPECT_GE(eval.entropies[0], 0.0);
    EXPECT_TRUE(std::isfinite(eval.entropies[0]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyInvariantTest,
                         ::testing::Values(7, 17, 27));

// ----------------------------------------------- snapshot determinism

// ------------------------------------------------ hostile CSV numerics

// Every hostile spelling a numeric CSV cell can carry. The invariant: a
// hostile field parses as null or flips the column to string — it must
// never materialize as a non-finite or garbage numeric value.
std::vector<std::string> HostileNumericFields() {
  return {
      "nan",
      "NaN",
      "-nan",
      "inf",
      "-inf",
      "infinity",
      "INF",
      "1e999999",    // double overflow
      "-1e999999",
      std::string("12\0 34", 6),  // embedded NUL
      "-",           // lone sign
      "+",
      "0x10",        // hex is not CSV-numeric
      "1.2.3",
      "--5",
  };
}

void ExpectNoGarbageNumerics(const Table& table) {
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = *table.column(c);
    if (col.type() == DataType::kString) continue;
    for (int64_t r = 0; r < col.length(); ++r) {
      if (col.IsNull(r)) continue;
      const double v = col.type() == DataType::kInt64
                           ? static_cast<double>(col.GetInt(r))
                           : col.GetDouble(r);
      EXPECT_TRUE(std::isfinite(v))
          << "column " << col.name() << " row " << r
          << " holds a non-finite numeric";
    }
  }
}

TEST(CsvHostileFieldTest, HostileCellInsideInferenceWindow) {
  // With the hostile cell inside the inference window the column cannot be
  // inferred numeric (ParseDouble rejects the spelling), so it degrades to
  // a string column — lossless and never non-finite.
  for (const std::string& hostile : HostileNumericFields()) {
    SCOPED_TRACE(hostile);
    const std::string csv = "x,y\n1,1.5\n" + hostile + ",2.5\n3,3.5\n";
    auto table = ReadCsvString(csv, "hostile");
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_EQ(table.value()->num_rows(), 3);
    const Column& x = *table.value()->column(0);
    EXPECT_EQ(x.type(), DataType::kString);
    ExpectNoGarbageNumerics(*table.value());
    // The clean neighbour column is unaffected.
    EXPECT_EQ(table.value()->column(1)->type(), DataType::kFloat64);
  }
}

TEST(CsvHostileFieldTest, HostileCellOutsideInferenceWindow) {
  // With inference limited to the clean prefix the column is committed to
  // float64 before the hostile cell arrives; the cell must become null,
  // not a smuggled non-finite.
  CsvOptions options;
  options.inference_rows = 2;
  for (const std::string& hostile : HostileNumericFields()) {
    SCOPED_TRACE(hostile);
    const std::string csv = "x\n1.5\n2.5\n" + hostile + "\n4.5\n";
    auto table = ReadCsvString(csv, "hostile", options);
    ASSERT_TRUE(table.ok()) << table.status();
    const Column& x = *table.value()->column(0);
    ASSERT_EQ(x.type(), DataType::kFloat64);
    ASSERT_EQ(x.length(), 4);
    EXPECT_TRUE(x.IsNull(2)) << "hostile cell must surface as null";
    EXPECT_EQ(x.null_count(), 1);
    ExpectNoGarbageNumerics(*table.value());
    EXPECT_DOUBLE_EQ(x.GetDouble(3), 4.5);  // parsing resumes cleanly
  }
}

TEST(CsvHostileFieldTest, IntOverflowDegradesToFloatNotWraparound) {
  // 2^63 overflows int64 but is a perfectly finite double: inference must
  // pick float64, never wrap the integer.
  const std::string csv = "x\n1\n9223372036854775808\n3\n";
  auto table = ReadCsvString(csv, "overflow");
  ASSERT_TRUE(table.ok()) << table.status();
  const Column& x = *table.value()->column(0);
  ASSERT_EQ(x.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(x.GetDouble(1), 9223372036854775808.0);
  ExpectNoGarbageNumerics(*table.value());
}

TEST(DeterminismTest, IdenticalSeedsYieldIdenticalEpisodes) {
  auto dataset = MakeDataset("cyber3");
  ASSERT_TRUE(dataset.ok());
  EnvConfig config;
  config.episode_length = 8;
  config.seed = 99;

  auto run_episode = [&]() {
    EdaEnvironment env(dataset.value(), config);
    Rng rng(5);
    env.Reset();
    std::vector<std::string> descriptions;
    while (!env.done()) {
      env.Step(SampleRandomAction(env.action_space(), &rng));
      descriptions.push_back(
          env.steps().back().op.Describe(*dataset.value().table));
    }
    return descriptions;
  };
  EXPECT_EQ(run_episode(), run_episode());
}

}  // namespace
}  // namespace atena
