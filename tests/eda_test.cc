#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "data/registry.h"
#include "eda/binning.h"
#include "eda/environment.h"
#include "eda/observation.h"
#include "eda/session.h"

namespace atena {
namespace {

Dataset SmallDataset() {
  auto d = MakeDataset("cyber2");  // 348 rows — cheap to step
  EXPECT_TRUE(d.ok());
  return d.value();
}

EnvConfig SmallConfig() {
  EnvConfig config;
  config.episode_length = 8;
  config.num_term_bins = 4;
  config.seed = 5;
  return config;
}

// ------------------------------------------------------------ Operation

TEST(OperationTest, DescribeFilter) {
  Dataset d = SmallDataset();
  int uri = d.table->FindColumn("uri");
  EdaOperation op = EdaOperation::Filter(uri, CompareOp::kEq,
                                         Value(std::string("/index.html")));
  EXPECT_EQ(op.Describe(*d.table), "FILTER uri == '/index.html'");
}

TEST(OperationTest, DescribeGroupAndBack) {
  Dataset d = SmallDataset();
  int src = d.table->FindColumn("source_ip");
  int bytes = d.table->FindColumn("response_bytes");
  EdaOperation group = EdaOperation::Group(src, AggFunc::kAvg, bytes);
  EXPECT_EQ(group.Describe(*d.table),
            "GROUP-BY source_ip, AVG(response_bytes)");
  EdaOperation count = EdaOperation::Group(src, AggFunc::kCount, -1);
  EXPECT_EQ(count.Describe(*d.table), "GROUP-BY source_ip, COUNT(*)");
  EXPECT_EQ(EdaOperation::Back().Describe(*d.table), "BACK");
}

// -------------------------------------------------------------- Binning

std::vector<TokenFreq> SyntheticTokens(std::vector<int64_t> counts) {
  std::vector<TokenFreq> tokens;
  int64_t id = 0;
  for (int64_t c : counts) {
    TokenFreq tf;
    tf.key = id++;
    tf.count = c;
    tokens.push_back(tf);
  }
  return tokens;
}

TEST(BinningTest, LogarithmicAssignment) {
  // max=64; halving ranges: bin0 [64..32), ... with 64 itself in bin 0.
  auto tokens = SyntheticTokens({64, 40, 16, 3, 1});
  TermBinning binning(tokens, 4);
  EXPECT_EQ(binning.BinSize(0), 2);  // 64, 40
  EXPECT_EQ(binning.BinSize(1), 0);
  EXPECT_EQ(binning.BinSize(2), 1);  // 16 -> log2(4)=2
  // 3 -> log2(64/3)=4.4 -> clamped to last bin together with 1.
  EXPECT_EQ(binning.BinSize(3), 2);
  // Each bin is its contiguous range of the count-descending list.
  Rng rng(5);
  for (int draw = 0; draw < 32; ++draw) {
    EXPECT_LT(binning.SampleToken(0, &rng), 2);
    EXPECT_EQ(binning.SampleToken(2, &rng), 2);
    EXPECT_GE(binning.SampleToken(3, &rng), 3);
  }
}

TEST(BinningTest, SampleFallsBackToNearestNonEmptyBin) {
  auto tokens = SyntheticTokens({100, 100});
  TermBinning binning(tokens, 8);
  Rng rng(3);
  // Only bin 0 is populated; any requested bin must still yield a token.
  for (int bin = 0; bin < 8; ++bin) {
    int t = binning.SampleToken(bin, &rng);
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 2);
  }
}

TEST(BinningTest, EmptyTokenListYieldsNoToken) {
  TermBinning binning({}, 4);
  Rng rng(3);
  EXPECT_EQ(binning.SampleToken(0, &rng), -1);
}

// The binning evaluates one bin per run of equal counts; each bin must
// hold exactly the tokens whose own count the per-token formula puts there.
TEST(BinningTest, EqualCountRunsMatchPerTokenBins) {
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int64_t> counts;
    int64_t count = 1 + static_cast<int64_t>(rng.NextBounded(5000));
    const int runs = 1 + static_cast<int>(rng.NextBounded(40));
    for (int run = 0; run < runs && count > 0; ++run) {
      const int length = 1 + static_cast<int>(rng.NextBounded(300));
      for (int i = 0; i < length; ++i) counts.push_back(count);
      count -= 1 + static_cast<int64_t>(rng.NextBounded(
                       static_cast<uint64_t>(count)));
    }
    const auto tokens = SyntheticTokens(counts);
    for (int bins : {1, 3, 8}) {
      TermBinning binning(tokens, bins);
      std::vector<int> want(static_cast<size_t>(bins), 0);
      const double max_count = static_cast<double>(counts.front());
      for (int64_t c : counts) {
        int bin = 0;
        const double d = static_cast<double>(c);
        if (d < max_count) {
          bin = static_cast<int>(std::floor(std::log2(max_count / d)));
        }
        ++want[static_cast<size_t>(std::min(bin, bins - 1))];
      }
      for (int b = 0; b < bins; ++b) {
        EXPECT_EQ(binning.BinSize(b), want[static_cast<size_t>(b)])
            << "trial " << trial << ", " << bins << " bins, bin " << b;
      }
    }
  }
}

class BinCountTest : public ::testing::TestWithParam<int> {};

TEST_P(BinCountTest, EveryTokenLandsInExactlyOneBin) {
  auto tokens = SyntheticTokens({512, 400, 256, 100, 64, 32, 9, 2, 1, 1});
  TermBinning binning(tokens, GetParam());
  int total = 0;
  for (int b = 0; b < binning.num_bins(); ++b) total += binning.BinSize(b);
  EXPECT_EQ(total, static_cast<int>(tokens.size()));
}

INSTANTIATE_TEST_SUITE_P(Bins, BinCountTest, ::testing::Values(1, 2, 4, 8, 16));

// -------------------------------------------------------- Observation

TEST(ObservationTest, Dimensions) {
  Dataset d = SmallDataset();
  ObservationEncoder encoder(d.table, 3);
  EXPECT_EQ(encoder.display_dim(), 4 * d.table->num_columns() + 3);
  EXPECT_EQ(encoder.observation_dim(), 3 * encoder.display_dim());
}

TEST(ObservationTest, ZeroPaddedHistory) {
  Dataset d = SmallDataset();
  ObservationEncoder encoder(d.table, 3);
  Display root;
  root.rows = AllRows(*d.table).value();
  auto vec =
      encoder.EncodeDisplay(root, ComputeSelectionStats(*d.table, root.rows));
  auto obs = encoder.EncodeObservation({vec});
  ASSERT_EQ(static_cast<int>(obs.size()), encoder.observation_dim());
  // Slot 0 = current display; slots 1 and 2 all-zero.
  for (int i = encoder.display_dim(); i < encoder.observation_dim(); ++i) {
    EXPECT_DOUBLE_EQ(obs[static_cast<size_t>(i)], 0.0);
  }
  for (size_t i = 0; i < vec.size(); ++i) {
    EXPECT_DOUBLE_EQ(obs[i], vec[i]);
  }
}

TEST(ObservationTest, MostRecentDisplayFirst) {
  Dataset d = SmallDataset();
  ObservationEncoder encoder(d.table, 2);
  Display root;
  root.rows = AllRows(*d.table).value();
  Display half = root;
  half.rows = std::vector<int32_t>(root.rows.begin(),
                                   root.rows.begin() +
                                       root.rows.size() / 2);
  auto v_root =
      encoder.EncodeDisplay(root, ComputeSelectionStats(*d.table, root.rows));
  auto v_half =
      encoder.EncodeDisplay(half, ComputeSelectionStats(*d.table, half.rows));
  auto obs = encoder.EncodeObservation({v_root, v_half});
  for (size_t i = 0; i < v_half.size(); ++i) {
    EXPECT_DOUBLE_EQ(obs[i], v_half[i]);
  }
}

TEST(ObservationTest, GroupFeaturesPopulatedOnlyWhenGrouped) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  env.StepOperation(EdaOperation::Group(method, AggFunc::kCount, -1));
  const auto& vectors = env.display_vectors();
  const auto& before = vectors[vectors.size() - 2];
  const auto& after = vectors.back();
  const int dim = env.encoder().display_dim();
  // Global features are the last three slots of the display vector.
  EXPECT_DOUBLE_EQ(before[static_cast<size_t>(dim - 3)], 0.0);
  EXPECT_GT(after[static_cast<size_t>(dim - 3)], 0.0);
  // The grouped column's flag flips on.
  EXPECT_DOUBLE_EQ(after[static_cast<size_t>(4 * method + 3)], 1.0);
}

// ---------------------------------------------------------- ActionSpace

TEST(ActionSpaceTest, SegmentLayoutAndCounts) {
  Dataset d = SmallDataset();
  EnvConfig config = SmallConfig();
  EdaEnvironment env(d, config);
  const ActionSpace& space = env.action_space();
  auto sizes = space.SegmentSizes();
  ASSERT_EQ(sizes.size(), 7u);
  EXPECT_EQ(sizes[0], kNumOpTypes);
  EXPECT_EQ(sizes[1], d.table->num_columns());
  EXPECT_EQ(sizes[2], kNumCompareOps);
  EXPECT_EQ(sizes[3], config.num_term_bins);
  EXPECT_EQ(sizes[5], kNumAggFuncs);
  const int c = d.table->num_columns();
  EXPECT_EQ(space.TotalParameterNodes(),
            kNumOpTypes + 3 * c + kNumCompareOps + config.num_term_bins +
                kNumAggFuncs);
  // Flat layout is much wider than the pre-output layout (paper §5).
  EXPECT_GT(space.FlatActionCount(10), space.TotalParameterNodes());
}

// ---------------------------------------------------------- Environment

TEST(EnvironmentTest, ResetProducesRootObservation) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  auto obs = env.Reset();
  EXPECT_EQ(static_cast<int>(obs.size()), env.observation_dim());
  EXPECT_EQ(env.step_count(), 0);
  EXPECT_FALSE(env.done());
  EXPECT_EQ(env.display_history().size(), 1u);
  EXPECT_EQ(env.current_display().rows.size(),
            static_cast<size_t>(d.table->num_rows()));
}

TEST(EnvironmentTest, FilterStepNarrowsRows) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  auto outcome = env.StepOperation(EdaOperation::Filter(
      method, CompareOp::kEq, Value(std::string("POST"))));
  EXPECT_TRUE(outcome.valid);
  EXPECT_LT(env.current_display().rows.size(),
            static_cast<size_t>(d.table->num_rows()));
  EXPECT_EQ(env.current_display().filters.size(), 1u);
  EXPECT_EQ(env.display_history().size(), 2u);
}

TEST(EnvironmentTest, EmptyFilterIsInvalidNoOp) {
  Dataset d = SmallDataset();
  EnvConfig config = SmallConfig();
  config.invalid_action_penalty = -2.5;
  EdaEnvironment env(d, config);
  env.Reset();
  int method = d.table->FindColumn("method");
  auto outcome = env.StepOperation(EdaOperation::Filter(
      method, CompareOp::kEq, Value(std::string("DELETE"))));
  EXPECT_FALSE(outcome.valid);
  EXPECT_DOUBLE_EQ(outcome.reward, -2.5);
  EXPECT_EQ(env.current_display().filters.size(), 0u);
  // History still advances (a repeated display).
  EXPECT_EQ(env.display_history().size(), 2u);
}

TEST(EnvironmentTest, RepeatedPredicateIsInvalidNoOp) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  EdaOperation filter = EdaOperation::Filter(method, CompareOp::kEq,
                                             Value(std::string("POST")));
  EXPECT_TRUE(env.StepOperation(filter).valid);
  // Re-applying the exact same predicate shows nothing new.
  EXPECT_FALSE(env.StepOperation(filter).valid);
  // A fresh predicate that keeps every row is a legitimate confirmation
  // step (e.g. "all of these are POSTs to the same host").
  int status = d.table->FindColumn("status");
  EXPECT_TRUE(env.StepOperation(EdaOperation::Filter(
      status, CompareOp::kGe, Value(int64_t{0}))).valid);
}

TEST(EnvironmentTest, BackAtRootIsInvalid) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  auto outcome = env.StepOperation(EdaOperation::Back());
  EXPECT_FALSE(outcome.valid);
}

TEST(EnvironmentTest, BackRestoresPreviousDisplay) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  env.StepOperation(EdaOperation::Filter(method, CompareOp::kEq,
                                         Value(std::string("POST"))));
  size_t filtered = env.current_display().rows.size();
  auto outcome = env.StepOperation(EdaOperation::Back());
  EXPECT_TRUE(outcome.valid);
  EXPECT_GT(env.current_display().rows.size(), filtered);
  EXPECT_EQ(env.current_display().filters.size(), 0u);
}

TEST(EnvironmentTest, ConsecutiveGroupsCompose) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  int status = d.table->FindColumn("status");
  EXPECT_TRUE(env.StepOperation(
      EdaOperation::Group(method, AggFunc::kCount, -1)).valid);
  EXPECT_TRUE(env.StepOperation(
      EdaOperation::Group(status, AggFunc::kCount, -1)).valid);
  EXPECT_EQ(env.current_display().group_columns.size(), 2u);
  // Grouping an already-grouped attribute is a no-op.
  EXPECT_FALSE(env.StepOperation(
      EdaOperation::Group(method, AggFunc::kCount, -1)).valid);
}

TEST(EnvironmentTest, GroupDepthIsCapped) {
  Dataset d = SmallDataset();
  EnvConfig config = SmallConfig();
  config.max_group_attrs = 2;
  config.episode_length = 10;
  EdaEnvironment env(d, config);
  env.Reset();
  EXPECT_TRUE(env.StepOperation(
      EdaOperation::Group(0, AggFunc::kCount, -1)).valid);
  EXPECT_TRUE(env.StepOperation(
      EdaOperation::Group(1, AggFunc::kCount, -1)).valid);
  EXPECT_FALSE(env.StepOperation(
      EdaOperation::Group(2, AggFunc::kCount, -1)).valid);
}

TEST(EnvironmentTest, FilterAfterGroupRecomputesGroups) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  int src = d.table->FindColumn("source_ip");
  env.StepOperation(EdaOperation::Group(method, AggFunc::kCount, -1));
  size_t groups_before = env.current_display().grouped->groups.size();
  auto outcome = env.StepOperation(EdaOperation::Filter(
      src, CompareOp::kEq, Value(std::string("203.0.113.99"))));
  EXPECT_TRUE(outcome.valid);
  ASSERT_TRUE(env.current_display().grouped != nullptr);
  EXPECT_LE(env.current_display().grouped->groups.size(), groups_before);
}

TEST(EnvironmentTest, EpisodeEndsAfterConfiguredLength) {
  Dataset d = SmallDataset();
  EnvConfig config = SmallConfig();
  config.episode_length = 3;
  EdaEnvironment env(d, config);
  env.Reset();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(env.done());
    env.StepOperation(EdaOperation::Back());  // invalid no-ops still count
  }
  EXPECT_TRUE(env.done());
  EXPECT_EQ(env.steps().size(), 3u);
}

TEST(EnvironmentTest, ResolveActionCoercesIncompatibleOperators) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  EnvAction action;
  action.type = OpType::kFilter;
  action.filter_column = d.table->FindColumn("uri");  // string column
  action.filter_op = static_cast<int>(CompareOp::kGt);
  EdaOperation op = env.ResolveAction(action);
  EXPECT_EQ(op.filter.op, CompareOp::kEq);

  action.filter_column = d.table->FindColumn("status");  // numeric column
  action.filter_op = static_cast<int>(CompareOp::kContains);
  op = env.ResolveAction(action);
  EXPECT_EQ(op.filter.op, CompareOp::kEq);
}

TEST(EnvironmentTest, ResolveActionCoercesStringAggToCount) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  EnvAction action;
  action.type = OpType::kGroup;
  action.group_column = d.table->FindColumn("method");
  action.agg_func = static_cast<int>(AggFunc::kAvg);
  action.agg_column = d.table->FindColumn("uri");  // string target
  EdaOperation op = env.ResolveAction(action);
  EXPECT_EQ(op.group.agg, AggFunc::kCount);
}

TEST(EnvironmentTest, ResolvedFilterTermComesFromCurrentDisplay) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  EnvAction action;
  action.type = OpType::kFilter;
  action.filter_column = d.table->FindColumn("method");
  action.filter_op = static_cast<int>(CompareOp::kEq);
  action.filter_bin = 0;
  EdaOperation op = env.ResolveAction(action);
  ASSERT_TRUE(op.filter.term.is_string());
  const std::string& term = op.filter.term.as_string();
  EXPECT_TRUE(term == "GET" || term == "POST");
}

TEST(EnvironmentTest, SnapshotRestoreRoundTrip) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  env.StepOperation(EdaOperation::Group(method, AggFunc::kCount, -1));
  auto snapshot = env.SaveSnapshot();
  const size_t history = env.display_history().size();
  env.StepOperation(EdaOperation::Filter(method, CompareOp::kEq,
                                         Value(std::string("POST"))));
  EXPECT_GT(env.display_history().size(), history);
  env.RestoreSnapshot(snapshot);
  EXPECT_EQ(env.display_history().size(), history);
  EXPECT_EQ(env.step_count(), 1);
  EXPECT_TRUE(env.current_display().is_grouped());
}

TEST(EnvironmentTest, EnumerateOperationsCoversAllTypes) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  auto ops = env.EnumerateOperations(2);
  bool has_filter = false, has_group = false, has_back = false;
  for (const auto& op : ops) {
    has_filter |= op.type == OpType::kFilter;
    has_group |= op.type == OpType::kGroup;
    has_back |= op.type == OpType::kBack;
  }
  EXPECT_TRUE(has_filter);
  EXPECT_TRUE(has_group);
  EXPECT_TRUE(has_back);
}

TEST(EnvironmentTest, CapRowsLimitsLargeSelections) {
  Dataset d = SmallDataset();
  EnvConfig config = SmallConfig();
  config.stats_row_cap = 100;
  EdaEnvironment env(d, config);
  auto capped = env.CapRows(AllRows(*d.table).value());
  EXPECT_EQ(capped.size(), 100u);
  // Order preserved, strictly increasing stride sample.
  for (size_t i = 1; i < capped.size(); ++i) {
    EXPECT_LT(capped[i - 1], capped[i]);
  }
}

TEST(EnvironmentTest, RewardSignalReceivesConsistentContext) {
  // The op being scored must be steps().back() when Compute runs.
  class ProbeReward final : public RewardSignal {
   public:
    double Compute(const RewardContext& context) override {
      ok = !context.env->steps().empty() &&
           &context.env->steps().back().op == context.op;
      return 0.5;
    }
    bool ok = false;
  };
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  ProbeReward probe;
  env.SetRewardSignal(&probe);
  env.Reset();
  int method = d.table->FindColumn("method");
  auto outcome = env.StepOperation(EdaOperation::Filter(
      method, CompareOp::kEq, Value(std::string("POST"))));
  EXPECT_TRUE(outcome.valid);
  EXPECT_DOUBLE_EQ(outcome.reward, 0.5);
  EXPECT_TRUE(probe.ok);
}

// --------------------------------------------------- Malformed actions

// Every parameterized head, probed at and past its bound: a malformed
// action id must take the penalized no-op path — never assert, never index
// out of range, never consume randomness.
TEST(EnvironmentTest, ValidateActionRejectsEveryOutOfRangeHead) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  const ActionSpace& space = env.action_space();

  EnvAction ok_filter;
  ok_filter.type = OpType::kFilter;
  EXPECT_TRUE(env.ValidateAction(ok_filter).ok());
  EnvAction ok_group;
  ok_group.type = OpType::kGroup;
  EXPECT_TRUE(env.ValidateAction(ok_group).ok());
  EXPECT_TRUE(env.ValidateAction(EnvAction{}).ok());  // kBack

  // The op-type head, exactly at its bound. (Values far outside the
  // enum's bit range would be UB to even form, so the decoder bound is
  // the interesting edge.)
  EnvAction action;
  action.type = static_cast<OpType>(space.num_op_types);
  EXPECT_EQ(env.ValidateAction(action).code(), StatusCode::kOutOfRange);

  struct HeadCase {
    const char* name;
    OpType type;
    int EnvAction::*field;
    int bound;
  };
  const HeadCase cases[] = {
      {"filter column", OpType::kFilter, &EnvAction::filter_column,
       space.num_columns},
      {"filter operator", OpType::kFilter, &EnvAction::filter_op,
       space.num_filter_ops},
      {"filter bin", OpType::kFilter, &EnvAction::filter_bin,
       space.num_term_bins},
      {"group column", OpType::kGroup, &EnvAction::group_column,
       space.num_columns},
      {"agg function", OpType::kGroup, &EnvAction::agg_func,
       space.num_agg_funcs},
      {"agg column", OpType::kGroup, &EnvAction::agg_column,
       space.num_columns},
  };
  for (const HeadCase& c : cases) {
    SCOPED_TRACE(c.name);
    for (int bad : {-1, c.bound, c.bound + 100}) {
      SCOPED_TRACE(bad);
      EnvAction probe;
      probe.type = c.type;
      probe.*(c.field) = bad;
      Status status = env.ValidateAction(probe);
      EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
      EXPECT_NE(status.message().find(c.name), std::string::npos)
          << status.message();
    }
    // The head's last valid index still passes validation.
    EnvAction valid;
    valid.type = c.type;
    valid.*(c.field) = c.bound - 1;
    EXPECT_TRUE(env.ValidateAction(valid).ok());
  }
}

TEST(EnvironmentTest, StepWithMalformedActionIsPenalizedNoOp) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();

  EnvAction bad;
  bad.type = OpType::kFilter;
  bad.filter_column = env.action_space().num_columns;  // at the bound

  const RngState rng_before = env.rng_state();
  StepOutcome outcome = env.Step(bad);
  EXPECT_FALSE(outcome.valid);
  EXPECT_DOUBLE_EQ(outcome.reward, env.config().invalid_action_penalty);
  EXPECT_FALSE(outcome.done);
  EXPECT_EQ(outcome.op.type, OpType::kBack);  // recorded as a no-op
  // Rejection happens before term sampling: zero randomness consumed, so
  // agents emitting garbage ids cannot desynchronize a deterministic run.
  const RngState rng_after = env.rng_state();
  for (int w = 0; w < 4; ++w) EXPECT_EQ(rng_after.words[w], rng_before.words[w]);
  EXPECT_EQ(rng_after.has_spare_gaussian, rng_before.has_spare_gaussian);
  ASSERT_EQ(env.steps().size(), 1u);
  EXPECT_FALSE(env.steps()[0].valid);

  // The episode continues: a subsequent well-formed action still executes.
  EnvAction good;
  good.type = OpType::kGroup;
  StepOutcome next = env.Step(good);
  EXPECT_TRUE(next.valid);
  EXPECT_EQ(env.steps().size(), 2u);
}

TEST(EnvironmentTest, MalformedActionsStillEndTheEpisode) {
  Dataset d = SmallDataset();
  EnvConfig config = SmallConfig();
  config.episode_length = 3;
  EdaEnvironment env(d, config);
  env.Reset();
  EnvAction bad;
  bad.type = OpType::kGroup;
  bad.agg_func = -7;
  StepOutcome outcome;
  for (int i = 0; i < 3; ++i) outcome = env.Step(bad);
  EXPECT_TRUE(outcome.done);
  EXPECT_FALSE(outcome.valid);
}

// -------------------------------------------------------------- Session

TEST(SessionTest, NotebookSkipsInvalidSteps) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  env.StepOperation(EdaOperation::Back());  // invalid at root
  env.StepOperation(EdaOperation::Filter(method, CompareOp::kEq,
                                         Value(std::string("POST"))));
  EdaNotebook notebook = NotebookFromSession(env, "test");
  ASSERT_EQ(notebook.entries.size(), 1u);
  EXPECT_EQ(notebook.entries[0].op.type, OpType::kFilter);
  EXPECT_EQ(notebook.generator, "test");
}

TEST(SessionTest, ReplayReproducesOperations) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  int method = d.table->FindColumn("method");
  std::vector<EdaOperation> ops = {
      EdaOperation::Group(method, AggFunc::kCount, -1),
      EdaOperation::Filter(method, CompareOp::kEq,
                           Value(std::string("GET"))),
  };
  double total = 0.0;
  EdaNotebook notebook = ReplayOperations(&env, ops, "replay", &total);
  EXPECT_EQ(notebook.entries.size(), 2u);
  EXPECT_EQ(notebook.dataset_id, "cyber2");
}

}  // namespace
}  // namespace atena
