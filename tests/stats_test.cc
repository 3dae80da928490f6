// The column-statistics engine against its oracle. ComputeColumnStats,
// TokenFrequencies and SelectionKlDivergence run one flat counting pass and
// rebuild only the distinct keys into an arena-backed map; the oracle
// below is the per-row std::unordered_map loop they replaced. Every result
// must match it bit for bit, which holds only if the rebuilt maps iterate
// in the oracle map's order: it feeds order-sensitive floating-point sums
// (entropy, KL) and std::sort's tie handling.
// Further down: the per-selection stats memo (EdaEnvironment::
// SelectionStats) against direct computation, cache on and off, and under
// concurrent stepping on a shared cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/math_utils.h"
#include "common/random.h"
#include "data/registry.h"
#include "dataframe/ops.h"
#include "dataframe/stats.h"
#include "eda/environment.h"

namespace atena {
namespace {

// ------------------------------------------------------------ the oracle

std::unordered_map<int64_t, double> OracleHistogram(
    const Column& column, const std::vector<int32_t>& rows) {
  std::unordered_map<int64_t, double> hist;
  for (int32_t r : rows) {
    if (column.IsNull(r)) continue;
    hist[column.CellKey(r)] += 1.0;
  }
  return hist;
}

/// The KL the reward computed before the union map carried both counts:
/// std::unordered_map union of p's keys then q's, each count looked up.
double OracleKlDivergence(const std::unordered_map<int64_t, double>& p,
                          const std::unordered_map<int64_t, double>& q) {
  constexpr double kEpsilon = 1e-4;
  if (p.empty() && q.empty()) return 0.0;
  std::unordered_map<int64_t, double> keys;
  double p_total = 0.0, q_total = 0.0;
  for (const auto& [k, v] : p) {
    keys[k] = 0.0;
    p_total += v;
  }
  for (const auto& [k, v] : q) {
    keys[k] = 0.0;
    q_total += v;
  }
  const double n = static_cast<double>(keys.size());
  p_total += kEpsilon * n;
  q_total += kEpsilon * n;
  if (p_total <= 0.0 || q_total <= 0.0) return 0.0;
  double kl = 0.0;
  for (const auto& [k, unused] : keys) {
    (void)unused;
    auto pit = p.find(k);
    auto qit = q.find(k);
    double pv = ((pit != p.end()) ? pit->second : 0.0) + kEpsilon;
    double qv = ((qit != q.end()) ? qit->second : 0.0) + kEpsilon;
    double pp = pv / p_total;
    double qq = qv / q_total;
    kl += pp * std::log(pp / qq);
  }
  return std::max(0.0, kl);
}

ColumnStats OracleColumnStats(const Column& column,
                              const std::vector<int32_t>& rows) {
  ColumnStats stats;
  stats.count = static_cast<int64_t>(rows.size());
  auto hist = OracleHistogram(column, rows);
  for (int32_t r : rows) {
    if (column.IsNull(r)) ++stats.nulls;
  }
  stats.distinct = static_cast<int64_t>(hist.size());
  std::vector<double> counts;
  for (const auto& [k, v] : hist) {
    (void)k;
    counts.push_back(v);
  }
  stats.entropy = Entropy(counts);
  stats.normalized_entropy = NormalizedEntropy(counts);
  return stats;
}

/// A token as the per-row loop boxed it: its first cell's value.
struct OracleToken {
  Value token;
  int64_t count = 0;
};

std::vector<OracleToken> OracleTokenFrequencies(
    const Column& column, const std::vector<int32_t>& rows) {
  std::unordered_map<int64_t, OracleToken> by_key;
  for (int32_t r : rows) {
    if (column.IsNull(r)) continue;
    auto [it, inserted] = by_key.try_emplace(column.CellKey(r));
    if (inserted) it->second.token = column.GetValue(r);
    ++it->second.count;
  }
  std::vector<OracleToken> out;
  for (auto& [k, tf] : by_key) {
    (void)k;
    out.push_back(std::move(tf));
  }
  std::sort(out.begin(), out.end(),
            [](const OracleToken& a, const OracleToken& b) {
              if (a.count != b.count) return a.count > b.count;
              return ValueLess(a.token, b.token);
            });
  return out;
}

// ------------------------------------------------------------- checks

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameStats(const ColumnStats& got, const ColumnStats& want,
                     const std::string& context) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(ColumnStats)), 0)
      << context << ": entropy " << got.entropy << " vs " << want.entropy
      << ", normalized " << got.normalized_entropy << " vs "
      << want.normalized_entropy << ", distinct " << got.distinct << " vs "
      << want.distinct << ", nulls " << got.nulls << " vs " << want.nulls;
}

/// Value equality with doubles compared by bit pattern (NaN tokens are
/// legitimate and must round-trip exactly).
bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    return Bits(a.as_double()) == Bits(b.as_double());
  }
  return a == b;
}

/// Tokens against the oracle's, each boxed from its cell key
/// (Column::KeyValue) and compared bit for bit.
void ExpectSameTokens(const Column& column, const std::vector<TokenFreq>& got,
                      const std::vector<OracleToken>& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].count, want[i].count) << context << " token " << i;
    const Value token = column.KeyValue(got[i].key);
    EXPECT_TRUE(SameValue(token, want[i].token))
        << context << " token " << i << ": " << token.ToString() << " vs "
        << want[i].token.ToString();
  }
}

/// SelectionKlDivergence against KlDivergence over the oracle's maps, and
/// both against the oracle's own KL.
void ExpectSameKl(const Column& column, const std::vector<int32_t>& p_rows,
                  const std::vector<int32_t>& q_rows,
                  const std::string& context) {
  const auto p = OracleHistogram(column, p_rows);
  const auto q = OracleHistogram(column, q_rows);
  const double want = OracleKlDivergence(p, q);
  const double got = SelectionKlDivergence(column, p_rows, q_rows);
  EXPECT_EQ(Bits(got), Bits(want)) << context << ": " << got << " vs "
                                   << want;
  EXPECT_EQ(Bits(KlDivergence(p, q)), Bits(want)) << context;
}

/// The KL of every ordered pair of `selections`, each against itself too.
void ExpectSameKlOnPairs(const Column& column,
                         const std::vector<std::vector<int32_t>>& selections,
                         const std::string& context) {
  for (size_t p = 0; p < selections.size(); ++p) {
    for (size_t q = 0; q < selections.size(); ++q) {
      ExpectSameKl(column, selections[p], selections[q],
                   context + " KL " + std::to_string(p) + " || " +
                       std::to_string(q));
    }
  }
}

void ExpectMatchesOracle(const Column& column,
                         const std::vector<int32_t>& rows,
                         const std::string& context) {
  ExpectSameStats(ComputeColumnStats(column, rows),
                  OracleColumnStats(column, rows), context);
  ExpectSameTokens(column, TokenFrequencies(column, rows),
                   OracleTokenFrequencies(column, rows), context);
}

// ----------------------------------------------------- random columns

/// A column of `length` cells drawn from `cardinality` distinct values
/// (nulls with probability `null_rate`). Float columns mix in ±0.0 and
/// ±inf, and two NaN payloads when the cardinality is small: NaN is
/// unordered under ValueLess, so TokenFrequencies' std::sort only stays
/// well-defined with it in the insertion-sort regime (at most 16 tokens).
/// String columns are dictionary-encoded.
ColumnPtr RandomColumn(DataType type, int length, int cardinality,
                       double null_rate, Rng* rng) {
  static const double kSpecial[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  const uint64_t specials = cardinality <= 8 ? 6 : 4;
  ColumnBuilder builder("c", type);
  for (int i = 0; i < length; ++i) {
    if (rng->NextBool(null_rate)) {
      builder.AppendNull();
      continue;
    }
    const int64_t v =
        static_cast<int64_t>(rng->NextBounded(static_cast<uint64_t>(
            std::max(1, cardinality))));
    switch (type) {
      case DataType::kInt64:
        EXPECT_TRUE(builder.AppendInt(v * 7919 - 50000).ok());
        break;
      case DataType::kFloat64: {
        const double d = rng->NextBool(0.1)
                             ? kSpecial[rng->NextBounded(specials)]
                             : static_cast<double>(v) * 0.25 - 3.0;
        EXPECT_TRUE(builder.AppendDouble(d).ok());
        break;
      }
      case DataType::kString:
        EXPECT_TRUE(builder.AppendString("tok" + std::to_string(v)).ok());
        break;
    }
  }
  return builder.Finish();
}

/// Selections over [0, length): empty, one row, all rows, and random
/// unsorted multisets (row ids duplicated).
std::vector<std::vector<int32_t>> Selections(int length, Rng* rng) {
  std::vector<std::vector<int32_t>> out;
  out.push_back({});
  if (length == 0) return out;
  out.push_back({static_cast<int32_t>(rng->NextBounded(
      static_cast<uint64_t>(length)))});
  std::vector<int32_t> all(static_cast<size_t>(length));
  for (int i = 0; i < length; ++i) all[static_cast<size_t>(i)] = i;
  out.push_back(all);
  for (int k = 0; k < 2; ++k) {
    std::vector<int32_t> rows;
    const int n = 1 + static_cast<int>(rng->NextBounded(
                          static_cast<uint64_t>(2 * length)));
    for (int i = 0; i < n; ++i) {
      rows.push_back(static_cast<int32_t>(
          rng->NextBounded(static_cast<uint64_t>(length))));
    }
    out.push_back(std::move(rows));
  }
  return out;
}

struct OracleCase {
  DataType type;
  int length;
  int cardinality;
  double null_rate;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << DataTypeName(c.type) << " length " << c.length << " cardinality "
      << c.cardinality << " nulls " << c.null_rate;
}

class StatsOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(StatsOracleTest, MatchesPerRowMapLoop) {
  const OracleCase& c = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(c.length) * 31 +
          static_cast<uint64_t>(c.cardinality));
  for (int trial = 0; trial < 4; ++trial) {
    ColumnPtr column =
        RandomColumn(c.type, c.length, c.cardinality, c.null_rate, &rng);
    const auto selections = Selections(c.length, &rng);
    const std::string context =
        std::string(DataTypeName(c.type)) + " trial " + std::to_string(trial);
    for (size_t s = 0; s < selections.size(); ++s) {
      ExpectMatchesOracle(*column, selections[s],
                          context + " selection " + std::to_string(s));
    }
    ExpectSameKlOnPairs(*column, selections, context);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomColumns, StatsOracleTest,
    ::testing::Values(
        // all-equal, few-distinct, many-distinct and all-distinct
        // (cardinality far above length) columns of every type.
        OracleCase{DataType::kInt64, 0, 1, 0.0},
        OracleCase{DataType::kInt64, 1, 1, 0.0},
        OracleCase{DataType::kInt64, 300, 1, 0.0},
        OracleCase{DataType::kInt64, 300, 7, 0.2},
        OracleCase{DataType::kInt64, 2000, 400, 0.05},
        OracleCase{DataType::kInt64, 2000, 1 << 30, 0.0},
        OracleCase{DataType::kFloat64, 1, 3, 0.0},
        OracleCase{DataType::kFloat64, 300, 1, 0.5},
        OracleCase{DataType::kFloat64, 300, 8, 0.1},
        OracleCase{DataType::kFloat64, 2000, 4, 0.02},
        OracleCase{DataType::kFloat64, 2000, 300, 0.05},
        OracleCase{DataType::kFloat64, 2000, 1 << 30, 0.0},
        OracleCase{DataType::kString, 1, 1, 0.0},
        OracleCase{DataType::kString, 300, 1, 0.3},
        OracleCase{DataType::kString, 300, 12, 0.1},
        OracleCase{DataType::kString, 2000, 500, 0.05},
        OracleCase{DataType::kString, 2000, 1 << 30, 0.0},
        // all nulls
        OracleCase{DataType::kInt64, 100, 5, 1.0},
        OracleCase{DataType::kString, 100, 5, 1.0}));

/// 80,000 ascending doubles, every 97th cell null: more than 2^16 codes,
/// numbered as the keys first appear.
ColumnPtr AscendingColumn() {
  ColumnBuilder builder("ascending", DataType::kFloat64);
  for (int i = 0; i < 80000; ++i) {
    if (i % 97 == 0) {
      builder.AppendNull();
    } else {
      EXPECT_TRUE(builder.AppendDouble(0.5 * i - 1000.0).ok());
    }
  }
  return builder.Finish();
}

// Distinct codes beyond the retained scratch size force the open-addressed
// table to regrow mid-pass. Every column here has more codes than the
// direct-address limit (2^16), so it takes the hashed path: a dictionary,
// numeric columns coded through the build's hash table and sort (the int64
// one order-coded, the float64 one not: it holds +0.0 and -0.0), and an
// ascending, order-coded float64 column.
TEST(StatsOracleLargeTest, RegrowthAndLargeDictionaries) {
  Rng rng(77);
  std::vector<ColumnPtr> columns;
  for (DataType type :
       {DataType::kInt64, DataType::kFloat64, DataType::kString}) {
    columns.push_back(RandomColumn(type, 80000, 1 << 30, 0.01, &rng));
  }
  columns.push_back(AscendingColumn());
  EXPECT_TRUE(columns[0]->order_coded());
  EXPECT_FALSE(columns[1]->order_coded());
  EXPECT_TRUE(columns[3]->order_coded());
  for (const ColumnPtr& column : columns) {
    const std::string name = std::string(DataTypeName(column->type())) +
                             " column " + column->name();
    EXPECT_GT(column->num_codes(), 1 << 16) << name;
    std::vector<int32_t> all(80000);
    for (int32_t i = 0; i < 80000; ++i) all[static_cast<size_t>(i)] = i;
    ExpectMatchesOracle(*column, all, "large " + name);
    // A small pass after the large one reuses the released scratch.
    std::vector<int32_t> few = {5, 3, 5, 79999, 0};
    ExpectMatchesOracle(*column, few, "after large " + name);
    // ~80,000-key histograms overflow the KL's arena onto the upstream
    // allocator; the small pair after them runs on the arena again.
    std::vector<int32_t> odd;
    for (int32_t i = 1; i < 80000; i += 2) odd.push_back(i);
    ExpectSameKlOnPairs(*column, {all, odd, few}, "large " + name);
  }
}

// Token orders that are easy to get wrong, on every kind of selection
// (identity, sorted subset, shuffled, reversed): a dictionary whose
// first-appearance order ("b", "a", "", "aa") is not lexicographic, with
// nulls; more than 16 int64 tokens beyond ±2^53, where distinct values can
// round to one double and tie; more than 16 doubles with +0.0 and -0.0 at
// equal counts; NaN with two payloads among at most 16 tokens; and
// all-distinct ascending columns, whose tokens all tie on count.
TEST(StatsOracleTieTest, TokenOrderEdgeCases) {
  constexpr int kRows = 600;
  constexpr int64_t kBig = int64_t{1} << 53;
  const std::vector<std::string> tokens = {"b", "a", "", "aa"};
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  ColumnBuilder strings("s", DataType::kString);
  ColumnBuilder big("big", DataType::kInt64);
  ColumnBuilder zeros("zeros", DataType::kFloat64);
  ColumnBuilder nans("nans", DataType::kFloat64);
  ColumnBuilder time("time", DataType::kFloat64);
  ColumnBuilder ids("ids", DataType::kInt64);
  for (int r = 0; r < kRows; ++r) {
    if (r % 7 == 5) {
      strings.AppendNull();
    } else {
      EXPECT_TRUE(
          strings.AppendString(tokens[static_cast<size_t>(r) % 4]).ok());
    }
    // 20 values, 30 rows each: 2^53 and 2^53 + 1 (one double), 2^53 + 3
    // and 2^53 + 4 (one double), ...
    const int64_t b = r % 20;
    EXPECT_TRUE(big.AppendInt(b < 15 ? kBig + b : -kBig - b).ok());
    // 20 values, 30 rows each, -0.0 first: +0.0 and -0.0 tie.
    const int z = (r * 7) % 20;
    EXPECT_TRUE(zeros
                    .AppendDouble(z == 0   ? -0.0
                                  : z == 1 ? 0.0
                                           : (z - 10.5) * 0.75)
                    .ok());
    const double nan_values[] = {kNaN, -kNaN, 0.0, -0.0, 2.0, -2.0};
    EXPECT_TRUE(nans.AppendDouble(nan_values[r % 6]).ok());
    EXPECT_TRUE(time.AppendDouble(0.25 * r).ok());
    EXPECT_TRUE(ids.AppendInt(r).ok());
  }
  std::vector<int32_t> all(kRows);
  for (int32_t i = 0; i < kRows; ++i) all[static_cast<size_t>(i)] = i;
  std::vector<std::vector<int32_t>> selections = {all};
  std::vector<int32_t> thirds;
  for (int32_t i = 0; i < kRows; i += 3) thirds.push_back(i);
  selections.push_back(thirds);
  std::vector<int32_t> shuffled = all;
  Rng rng(41);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  selections.push_back(shuffled);
  selections.push_back(std::vector<int32_t>(all.rbegin(), all.rend()));
  for (ColumnBuilder* builder : {&strings, &big, &zeros, &nans, &time, &ids}) {
    ColumnPtr column = builder->Finish();
    for (size_t s = 0; s < selections.size(); ++s) {
      ExpectMatchesOracle(*column, selections[s],
                          column->name() + " selection " + std::to_string(s));
    }
    ExpectSameKlOnPairs(*column, selections, column->name());
  }
}

// Every thread counts with its own scratch and arena: concurrent passes
// over shared columns must each match the oracle.
TEST(StatsOracleLargeTest, ConcurrentPassesMatchOracle) {
  Rng rng(5);
  std::vector<ColumnPtr> columns = {
      RandomColumn(DataType::kInt64, 3000, 50, 0.1, &rng),
      RandomColumn(DataType::kFloat64, 3000, 1 << 30, 0.1, &rng),
      RandomColumn(DataType::kString, 3000, 40, 0.1, &rng)};
  const auto selections = Selections(3000, &rng);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t c = 0; c < columns.size(); ++c) {
          const auto& rows = selections[(c + static_cast<size_t>(t)) %
                                        selections.size()];
          ExpectMatchesOracle(*columns[c], rows,
                              "thread " + std::to_string(t));
          ExpectSameKl(*columns[c], rows, selections.back(),
                       "thread " + std::to_string(t));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

// ------------------------------------------------ per-table ratios

// Table::Make stores each column's distinct ratio once; the reward and the
// coherency rules read it. It must equal the oracle's distinct count over
// all rows divided by the row count, bit for bit.
TEST(DistinctRatiosTest, TableStoresRatiosOfEveryDataset) {
  std::vector<Dataset> datasets = MakeAllDatasets().value();
  datasets.push_back(MakeDataset("cyber1", 10).value());
  for (const Dataset& dataset : datasets) {
    const Table& table = *dataset.table;
    const std::vector<int32_t> all = AllRows(table).value();
    ASSERT_EQ(table.distinct_ratios().size(),
              static_cast<size_t>(table.num_columns()));
    for (int c = 0; c < table.num_columns(); ++c) {
      const double direct =
          static_cast<double>(OracleHistogram(*table.column(c), all).size()) /
          static_cast<double>(table.num_rows());
      EXPECT_EQ(Bits(table.distinct_ratios()[static_cast<size_t>(c)]),
                Bits(direct))
          << table.name() << " (" << table.num_rows() << " rows) column "
          << table.column_name(c);
    }
  }
}

// A string column's null cells carry the placeholder code of an "" entry
// AppendNull interns; the ratio counts "" only when a non-null cell holds
// it, as the oracle does.
TEST(DistinctRatiosTest, NullPlaceholderIsNotAValue) {
  for (bool empty_string_cell : {false, true}) {
    ColumnBuilder strings("s", DataType::kString);
    ColumnBuilder ints("i", DataType::kInt64);
    for (int r = 0; r < 10; ++r) {
      if (r % 3 == 0) {
        strings.AppendNull();
        ints.AppendNull();
        continue;
      }
      const bool empty = empty_string_cell && r == 5;
      EXPECT_TRUE(
          strings.AppendString(empty ? "" : "v" + std::to_string(r % 4)).ok());
      EXPECT_TRUE(ints.AppendInt(r % 4).ok());
    }
    std::vector<ColumnPtr> columns = {strings.Finish(), ints.Finish()};
    TablePtr table = Table::Make("placeholder", std::move(columns)).value();
    const std::vector<int32_t> all = AllRows(*table).value();
    for (int c = 0; c < table->num_columns(); ++c) {
      const double direct =
          static_cast<double>(OracleHistogram(*table->column(c), all).size()) /
          static_cast<double>(table->num_rows());
      EXPECT_EQ(Bits(table->distinct_ratios()[static_cast<size_t>(c)]),
                Bits(direct))
          << table->column_name(c) << (empty_string_cell ? " with" : " without")
          << " an empty-string cell";
    }
  }
}

// ------------------------------------------------ the per-selection memo

EnvConfig MemoConfig(bool cache) {
  EnvConfig config;
  config.episode_length = 10;
  config.stats_row_cap = 512;  // capping is part of what is memoized
  config.display_cache_enabled = cache;
  return config;
}

/// Runs a fixed random-action script; returns every display vector.
std::vector<std::vector<double>> RunScript(EdaEnvironment* env,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> vectors;
  for (int episode = 0; episode < 3; ++episode) {
    env->Reset();
    while (!env->done()) {
      env->Step(SampleRandomAction(env->action_space(), &rng));
    }
    vectors.insert(vectors.end(), env->display_vectors().begin(),
                   env->display_vectors().end());
  }
  return vectors;
}

TEST(SelectionStatsTest, EncoderVectorsMatchWithCacheOnAndOff) {
  for (const std::string id : {"cyber1", "flights2"}) {
    Dataset dataset = MakeDataset(id).value();
    EdaEnvironment cached(dataset, MemoConfig(true));
    EdaEnvironment uncached(dataset, MemoConfig(false));
    ASSERT_NE(cached.display_cache(), nullptr);
    ASSERT_EQ(uncached.display_cache(), nullptr);
    EXPECT_EQ(RunScript(&cached, 31), RunScript(&uncached, 31)) << id;

    // The memo holds exactly the stats of the capped selection.
    for (const Display& display : cached.display_history()) {
      const auto memo = cached.SelectionStats(display);
      const auto direct = ComputeSelectionStats(
          *dataset.table, cached.CapRows(display.rows));
      ASSERT_EQ(memo->size(), direct.size());
      for (size_t c = 0; c < direct.size(); ++c) {
        ExpectSameStats((*memo)[c], direct[c],
                        id + " column " + std::to_string(c));
      }
    }
  }
}

// A GROUP keeps its parent's rows, so its display's stats are one memo
// hit: the step misses only on the grouped result and the display vector.
TEST(SelectionStatsTest, GroupOverCachedSelectionAddsNoStatsMiss) {
  Dataset dataset = MakeDataset("cyber1").value();
  EdaEnvironment env(dataset, MemoConfig(true));
  const int column = dataset.table->FindColumn("protocol");
  ASSERT_GE(column, 0);
  const uint64_t stats_key = StatsKey(env.current_display().rows_signature,
                                      env.config().stats_row_cap);
  ASSERT_NE(env.display_cache()->GetStats(stats_key), nullptr);

  const DisplayCacheStats before = env.display_cache()->stats();
  const StepOutcome outcome =
      env.StepOperation(EdaOperation::Group(column, AggFunc::kCount, -1));
  ASSERT_TRUE(outcome.valid);
  const DisplayCacheStats after = env.display_cache()->stats();
  EXPECT_EQ(after.misses - before.misses, 2u);  // grouped result + vector
  EXPECT_EQ(after.hits - before.hits, 1u);      // the selection's stats
}

// Serving workers step environments that share one cache: concurrent
// SelectionStats fills and hits must leave every trace unchanged.
TEST(SelectionStatsTest, SharedCacheUnderConcurrentStepping) {
  Dataset dataset = MakeDataset("cyber2").value();
  std::vector<std::vector<std::vector<double>>> serial;
  for (int t = 0; t < 4; ++t) {
    EdaEnvironment env(dataset, MemoConfig(false));
    serial.push_back(RunScript(&env, 100 + static_cast<uint64_t>(t % 2)));
  }
  auto shared = std::make_shared<DisplayCache>(
      DisplayCache::Options{.capacity = 4096, .shards = 4});
  std::vector<std::vector<std::vector<double>>> parallel(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      EdaEnvironment env(dataset, MemoConfig(true));
      env.SetDisplayCache(shared);
      parallel[static_cast<size_t>(t)] =
          RunScript(&env, 100 + static_cast<uint64_t>(t % 2));
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(parallel[static_cast<size_t>(t)],
              serial[static_cast<size_t>(t)])
        << "thread " << t;
  }
}

}  // namespace
}  // namespace atena
