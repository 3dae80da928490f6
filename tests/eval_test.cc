#include <gtest/gtest.h>

#include <cmath>

#include "data/registry.h"
#include "eval/gold.h"
#include "eval/insights.h"
#include "eval/metrics.h"
#include "eval/ratings.h"
#include "eval/traces.h"
#include "eval/view_signature.h"
#include "support/reference_metrics.h"

namespace atena {
namespace {

Dataset SmallDataset() {
  auto d = MakeDataset("cyber2");
  EXPECT_TRUE(d.ok());
  return d.value();
}

EnvConfig EvalConfig() {
  EnvConfig config;
  config.episode_length = 10;
  config.num_term_bins = 8;
  return config;
}

ViewSignature Sig(std::vector<std::string> filters,
                  std::vector<std::string> groups, std::string agg = "") {
  ViewSignature s;
  s.filters = std::move(filters);
  s.groups = std::move(groups);
  s.aggregation = std::move(agg);
  std::sort(s.filters.begin(), s.filters.end());
  std::sort(s.groups.begin(), s.groups.end());
  return s;
}

// ------------------------------------------------------- view signature

TEST(ViewSignatureTest, CanonicalizationIsOrderInsensitive) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, EvalConfig());
  int method = d.table->FindColumn("method");
  int status = d.table->FindColumn("status");
  int src = d.table->FindColumn("source_ip");

  // Path A: filter then group method, group status.
  env.Reset();
  env.StepOperation(EdaOperation::Filter(src, CompareOp::kEq,
                                         Value(std::string("203.0.113.99"))));
  env.StepOperation(EdaOperation::Group(method, AggFunc::kCount, -1));
  env.StepOperation(EdaOperation::Group(status, AggFunc::kCount, -1));
  auto sig_a = MakeViewSignature(*d.table, env.current_display());

  // Path B: group status, group method, then filter.
  env.Reset();
  env.StepOperation(EdaOperation::Group(status, AggFunc::kCount, -1));
  env.StepOperation(EdaOperation::Group(method, AggFunc::kCount, -1));
  env.StepOperation(EdaOperation::Filter(src, CompareOp::kEq,
                                         Value(std::string("203.0.113.99"))));
  auto sig_b = MakeViewSignature(*d.table, env.current_display());

  EXPECT_TRUE(sig_a == sig_b);
  EXPECT_EQ(sig_a.ToKey(), sig_b.ToKey());
}

TEST(ViewSignatureTest, KeyEncodesAllParts) {
  auto sig = Sig({"a == 1"}, {"g"}, "AVG(x)");
  std::string key = sig.ToKey();
  EXPECT_NE(key.find("a == 1"), std::string::npos);
  EXPECT_NE(key.find("g"), std::string::npos);
  EXPECT_NE(key.find("AVG(x)"), std::string::npos);
}

TEST(ViewSimilarityTest, IdenticalViewsScoreOne) {
  auto sig = Sig({"a == 1"}, {"g"}, "AVG(x)");
  EXPECT_DOUBLE_EQ(ViewSimilarity(sig, sig), 1.0);
  auto empty = Sig({}, {});
  EXPECT_DOUBLE_EQ(ViewSimilarity(empty, empty), 1.0);
}

TEST(ViewSimilarityTest, PartialCreditForSharedComponents) {
  auto a = Sig({"a == 1"}, {"g"}, "AVG(x)");
  auto b = Sig({"a == 1"}, {"h"}, "AVG(x)");
  double sim = ViewSimilarity(a, b);
  EXPECT_GT(sim, 0.4);
  EXPECT_LT(sim, 1.0);
  auto c = Sig({"z == 9"}, {"h"}, "SUM(y)");
  EXPECT_LT(ViewSimilarity(a, c), sim);
}

// --------------------------------------------------------------- metrics

TEST(PrecisionTest, HitsOverDistinctViews) {
  auto v1 = Sig({"a == 1"}, {});
  auto v2 = Sig({}, {"g"}, "COUNT(*)");
  auto v3 = Sig({"b == 2"}, {});
  std::vector<std::vector<ViewSignature>> gold = {{v1, v2}};
  // Candidate: v1 (hit), v3 (miss), v1 duplicated (ignored).
  double p = ViewPrecision({v1, v3, v1}, gold);
  EXPECT_DOUBLE_EQ(p, 0.5);
  EXPECT_DOUBLE_EQ(ViewPrecision({}, gold), 0.0);
}

TEST(TBleuTest, PerfectMatchScoresHigh) {
  auto v1 = Sig({"a == 1"}, {});
  auto v2 = Sig({}, {"g"}, "COUNT(*)");
  auto v3 = Sig({"b == 2"}, {});
  std::vector<ViewSignature> reference = {v1, v2, v3};
  std::vector<std::vector<ViewSignature>> gold = {reference};
  EXPECT_GT(TBleu(reference, gold, 1), 0.99);
  EXPECT_GT(TBleu(reference, gold, 3), 0.99);
}

TEST(TBleuTest, OrderMattersForHigherOrders) {
  auto v1 = Sig({"a == 1"}, {});
  auto v2 = Sig({}, {"g"}, "COUNT(*)");
  auto v3 = Sig({"b == 2"}, {});
  std::vector<std::vector<ViewSignature>> gold = {{v1, v2, v3}};
  std::vector<ViewSignature> shuffled = {v3, v1, v2};
  // Unigram precision is unaffected by order; trigram precision collapses.
  EXPECT_GT(TBleu(shuffled, gold, 1), 0.99);
  EXPECT_LT(TBleu(shuffled, gold, 3), TBleu({v1, v2, v3}, gold, 3));
}

TEST(TBleuTest, BrevityPenaltyAppliesToShortCandidates) {
  auto v1 = Sig({"a == 1"}, {});
  auto v2 = Sig({}, {"g"}, "COUNT(*)");
  auto v3 = Sig({"b == 2"}, {});
  auto v4 = Sig({}, {"h"}, "COUNT(*)");
  std::vector<std::vector<ViewSignature>> gold = {{v1, v2, v3, v4}};
  double full = TBleu({v1, v2, v3, v4}, gold, 1);
  double brief = TBleu({v1}, gold, 1);
  EXPECT_LT(brief, full);
}

TEST(TBleuTest, MissingOrderIsSmoothedByMethodOne) {
  // Unigram precision 1/2 and no shared bigram: Chen & Cherry method 1
  // counts 0.1 matches over the one candidate bigram, so T-BLEU-2 is the
  // geometric mean of 0.5 and 0.1. Equal lengths: no brevity penalty.
  auto a = Sig({"a == 1"}, {});
  auto b = Sig({"b == 2"}, {});
  auto c = Sig({}, {"g"}, "COUNT(*)");
  std::vector<std::vector<ViewSignature>> gold = {{a, c}};
  EXPECT_DOUBLE_EQ(TBleu({a, b}, gold, 1), 0.5);
  EXPECT_DOUBLE_EQ(TBleu({a, b}, gold, 2), std::sqrt(0.05));
  // No matching unigram at all scores 0, as in NLTK's sentence BLEU.
  EXPECT_EQ(TBleu({b}, gold, 2), 0.0);
}

TEST(EdaSimTest, IdentityAndBounds) {
  auto v1 = Sig({"a == 1"}, {});
  auto v2 = Sig({}, {"g"}, "COUNT(*)");
  std::vector<ViewSignature> s = {v1, v2};
  EXPECT_DOUBLE_EQ(EdaSim(s, s), 1.0);
  EXPECT_DOUBLE_EQ(EdaSim({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(EdaSim(s, {}), 0.0);
  double cross = EdaSim(s, {v2, v1});
  EXPECT_GT(cross, 0.0);
  EXPECT_LT(cross, 1.0);
}

TEST(EdaSimTest, PartialCreditBeatsDisjoint) {
  auto a = Sig({"a == 1"}, {"g"}, "AVG(x)");
  auto near = Sig({"a == 1"}, {"g"}, "SUM(x)");
  auto far = Sig({"q == 9"}, {"z"}, "MIN(w)");
  EXPECT_GT(EdaSim({a}, {near}), EdaSim({a}, {far}));
}

TEST(EdaSimTest, MaxOverGoldSelectsClosest) {
  auto a = Sig({"a == 1"}, {});
  auto b = Sig({"b == 2"}, {});
  std::vector<std::vector<ViewSignature>> gold = {{b}, {a}};
  EXPECT_DOUBLE_EQ(MaxEdaSim({a}, gold), 1.0);
}

TEST(EdaSimTest, MaxIsIdenticalToPlainLoop) {
  // Synthesize a gold set of many notebooks over a shared view pool, then
  // check the memoized MaxEdaSim against the plain EdaSim loop.
  // Deterministic LCG so failures reproduce.
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state](int bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((state >> 33) % static_cast<uint64_t>(bound));
  };
  std::vector<ViewSignature> pool;
  for (int i = 0; i < 12; ++i) {
    pool.push_back(Sig({"c" + std::to_string(next(6)) + " == 1"},
                       {"g" + std::to_string(next(4))},
                       i % 3 == 0 ? "" : "AVG(x" + std::to_string(next(3)) +
                                             ")"));
  }
  auto draw_notebook = [&](int length) {
    std::vector<ViewSignature> notebook;
    for (int i = 0; i < length; ++i) {
      notebook.push_back(pool[static_cast<size_t>(next(
          static_cast<int>(pool.size())))]);
    }
    return notebook;
  };
  std::vector<std::vector<ViewSignature>> gold;
  for (int r = 0; r < 40; ++r) gold.push_back(draw_notebook(3 + next(8)));
  gold.push_back({});  // empty reference exercises the special case

  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<ViewSignature> candidate =
        trial == 0 ? std::vector<ViewSignature>{} : draw_notebook(2 + next(9));
    double reference_best = 0.0;
    for (const auto& notebook : gold) {
      reference_best = std::max(reference_best, EdaSim(candidate, notebook));
    }
    EXPECT_EQ(MaxEdaSim(candidate, gold), reference_best) << "trial " << trial;
  }
}

TEST(MetricsTest, ComputeAedaScoresBundlesAll) {
  auto v1 = Sig({"a == 1"}, {});
  std::vector<std::vector<ViewSignature>> gold = {{v1}};
  AedaScores scores = ComputeAedaScores({v1}, gold);
  EXPECT_DOUBLE_EQ(scores.precision, 1.0);
  EXPECT_GT(scores.t_bleu_1, 0.99);
  EXPECT_DOUBLE_EQ(scores.eda_sim, 1.0);
}

// ------------------------------------------------------------------ gold

class GoldScriptsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldScriptsTest, ScriptsReplayWithoutInvalidOps) {
  auto dataset = MakeDataset(GetParam());
  ASSERT_TRUE(dataset.ok());
  auto scripts = GoldOperationScripts(dataset.value());
  ASSERT_TRUE(scripts.ok()) << scripts.status();
  EXPECT_GE(scripts.value().size(), 5u);

  EnvConfig config = EvalConfig();
  EdaEnvironment env(dataset.value(), config);
  for (size_t i = 0; i < scripts.value().size(); ++i) {
    const auto& script = scripts.value()[i];
    EXPECT_LE(static_cast<int>(script.size()), config.episode_length)
        << "script " << i << " longer than an episode";
    env.Reset();
    for (size_t j = 0; j < script.size(); ++j) {
      StepOutcome outcome = env.StepOperation(script[j]);
      EXPECT_TRUE(outcome.valid)
          << GetParam() << " script " << i << " op " << j << ": "
          << script[j].Describe(*dataset.value().table);
    }
  }
}

TEST_P(GoldScriptsTest, GoldNotebooksAreNonTrivial) {
  auto dataset = MakeDataset(GetParam());
  ASSERT_TRUE(dataset.ok());
  auto notebooks = GoldNotebooks(dataset.value(), EvalConfig());
  ASSERT_TRUE(notebooks.ok());
  for (const auto& notebook : notebooks.value()) {
    EXPECT_GE(notebook.entries.size(), 4u);
    EXPECT_EQ(notebook.generator, "Gold");
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, GoldScriptsTest,
                         ::testing::Values("cyber1", "cyber2", "cyber3",
                                           "cyber4", "flights1", "flights2",
                                           "flights3", "flights4"));

// ---------------------------------------------------------------- traces

TEST(TracesTest, GeneratesRequestedNumberOfTraces) {
  Dataset d = SmallDataset();
  TraceOptions options;
  options.num_traces = 4;
  auto traces = SimulatedTraceNotebooks(d, EvalConfig(), options);
  ASSERT_TRUE(traces.ok());
  EXPECT_EQ(traces.value().size(), 4u);
  for (const auto& t : traces.value()) {
    EXPECT_EQ(t.generator, "EDA-Traces");
    EXPECT_FALSE(t.entries.empty());
  }
}

TEST(TracesTest, TracesAreGoldLikeButNoisier) {
  Dataset d = SmallDataset();
  auto gold = GoldNotebooks(d, EvalConfig());
  ASSERT_TRUE(gold.ok());
  std::vector<std::vector<ViewSignature>> gold_views;
  for (const auto& g : gold.value()) {
    gold_views.push_back(NotebookSignatures(g));
  }
  auto traces = SimulatedTraceNotebooks(d, EvalConfig());
  ASSERT_TRUE(traces.ok());
  double total = 0.0;
  for (const auto& t : traces.value()) {
    total += MaxEdaSim(NotebookSignatures(t), gold_views);
  }
  double mean = total / traces.value().size();
  // Clearly related to gold, clearly below a gold notebook itself.
  EXPECT_GT(mean, 0.15);
  EXPECT_LT(mean, 0.95);
}

// -------------------------------------------------------------- insights

TEST(InsightsTest, CatalogSizesMatchPaperRange) {
  for (const char* id : {"cyber1", "cyber2", "cyber3", "cyber4"}) {
    auto catalog = InsightCatalog(id);
    EXPECT_GE(catalog.size(), 9u) << id;
    EXPECT_LE(catalog.size(), 15u) << id;
  }
  EXPECT_TRUE(InsightCatalog("flights1").empty());
}

TEST(InsightsTest, EmptyNotebookCoversNothing) {
  Dataset d = SmallDataset();
  EdaNotebook empty;
  empty.dataset_id = "cyber2";
  empty.table = d.table;
  EXPECT_DOUBLE_EQ(InsightCoverage(empty, InsightCatalog("cyber2")), 0.0);
}

class GoldCoverageTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldCoverageTest, GoldNotebooksCoverMostInsights) {
  auto dataset = MakeDataset(GetParam());
  ASSERT_TRUE(dataset.ok());
  auto notebooks = GoldNotebooks(dataset.value(), EvalConfig());
  ASSERT_TRUE(notebooks.ok());
  auto catalog = InsightCatalog(GetParam());
  double total = 0.0;
  for (const auto& notebook : notebooks.value()) {
    total += InsightCoverage(notebook, catalog);
  }
  double mean = total / notebooks.value().size();
  EXPECT_GT(mean, 0.45) << "gold notebooks should reveal most insights";
}

INSTANTIATE_TEST_SUITE_P(CyberDatasets, GoldCoverageTest,
                         ::testing::Values("cyber1", "cyber2", "cyber3",
                                           "cyber4"));

TEST(ViewPatternTest, MatchingSemantics) {
  auto view = Sig({"protocol == ICMP", "source_ip == 10.0.66.66"},
                  {"destination_ip"}, "COUNT(*)");
  ViewPattern all_match;
  all_match.filter_substrings = {"protocol == ICMP"};
  all_match.required_groups = {"destination_ip"};
  all_match.agg_substring = "COUNT";
  EXPECT_TRUE(all_match.Matches(view));

  ViewPattern wrong_group = all_match;
  wrong_group.required_groups = {"source_ip"};
  EXPECT_FALSE(wrong_group.Matches(view));

  ViewPattern wrong_filter = all_match;
  wrong_filter.filter_substrings = {"protocol == TCP"};
  EXPECT_FALSE(wrong_filter.Matches(view));

  ViewPattern empty;  // matches anything
  EXPECT_TRUE(empty.Matches(view));
}

// --------------------------------------------------------------- ratings

TEST(RatingsTest, GoldOutratesNoise) {
  Dataset d = SmallDataset();
  EnvConfig config = EvalConfig();
  auto gold = GoldNotebooks(d, config);
  ASSERT_TRUE(gold.ok());

  // A junk notebook: filter chains over the id column.
  EdaEnvironment env(d, config);
  int id_col = d.table->FindColumn("request_id");
  std::vector<EdaOperation> junk_ops;
  for (int i = 0; i < 8; ++i) {
    junk_ops.push_back(EdaOperation::Filter(id_col, CompareOp::kGt,
                                            Value(int64_t{i * 10})));
  }
  EdaNotebook junk = ReplayOperations(&env, junk_ops, "junk");

  auto gold_quality = AssessNotebook(d, gold.value()[0], gold.value(),
                                     config);
  ASSERT_TRUE(gold_quality.ok());
  auto junk_quality = AssessNotebook(d, junk, gold.value(), config);
  ASSERT_TRUE(junk_quality.ok());

  UserRatings gold_ratings = ProxyRatings(gold_quality.value());
  UserRatings junk_ratings = ProxyRatings(junk_quality.value());
  EXPECT_GT(gold_ratings.informativity, junk_ratings.informativity);
  EXPECT_GT(gold_ratings.comprehensibility, junk_ratings.comprehensibility);
  EXPECT_GT(gold_ratings.expertise, junk_ratings.expertise);
  EXPECT_GT(gold_ratings.human_equivalence, junk_ratings.human_equivalence);
}

TEST(RatingsTest, ScaleStaysWithinOneToSeven) {
  NotebookQuality perfect;
  perfect.mean_interestingness = 1.0;
  perfect.mean_coherency = 1.0;
  perfect.mean_diversity = 1.0;
  perfect.eda_sim_to_gold = 1.0;
  perfect.precision_to_gold = 1.0;
  UserRatings top = ProxyRatings(perfect);
  EXPECT_LE(top.informativity, 7.0);
  EXPECT_GT(top.informativity, 6.5);
  UserRatings bottom = ProxyRatings(NotebookQuality{});
  EXPECT_GE(bottom.comprehensibility, 1.0);
  EXPECT_LT(bottom.comprehensibility, 2.0);
}

TEST(RatingsTest, GoldIsScoredLeaveOneOut) {
  Dataset d = SmallDataset();
  auto gold = GoldNotebooks(d, EvalConfig());
  ASSERT_TRUE(gold.ok());
  auto quality = AssessNotebook(d, gold.value()[0], gold.value(),
                                EvalConfig());
  ASSERT_TRUE(quality.ok());
  // Compared against the other four gold notebooks, similarity is high but
  // not the trivial self-match 1.0.
  EXPECT_GT(quality.value().eda_sim_to_gold, 0.2);
  EXPECT_LT(quality.value().eda_sim_to_gold, 1.0);
}

}  // namespace
}  // namespace atena
