#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>

#include "data/registry.h"
#include "dataframe/ops.h"
#include "dataframe/stats.h"
#include "support/reference_ops.h"

namespace atena {
namespace {

struct DatasetSpec {
  const char* id;
  int64_t rows;  // paper Table 1
};

class DatasetRowsTest : public ::testing::TestWithParam<DatasetSpec> {};

TEST_P(DatasetRowsTest, RowCountMatchesTable1) {
  auto dataset = MakeDataset(GetParam().id);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset.value().table->num_rows(), GetParam().rows);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, DatasetRowsTest,
    ::testing::Values(DatasetSpec{"cyber1", 8648}, DatasetSpec{"cyber2", 348},
                      DatasetSpec{"cyber3", 745}, DatasetSpec{"cyber4", 13625},
                      DatasetSpec{"flights1", 5661},
                      DatasetSpec{"flights2", 8172},
                      DatasetSpec{"flights3", 1082},
                      DatasetSpec{"flights4", 2175}),
    [](const ::testing::TestParamInfo<DatasetSpec>& info) {
      return std::string(info.param.id);
    });

TEST_P(DatasetRowsTest, ScaleMultipliesRowsDeterministically) {
  constexpr int kScale = 7;
  auto a = MakeDataset(GetParam().id, kScale);
  auto b = MakeDataset(GetParam().id, kScale);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok());
  const Table& ta = *a.value().table;
  const Table& tb = *b.value().table;
  EXPECT_EQ(ta.num_rows(), GetParam().rows * kScale);
  ASSERT_EQ(ta.num_rows(), tb.num_rows());
  for (int64_t r = 0; r < ta.num_rows(); r += 997) {
    for (int c = 0; c < ta.num_columns(); ++c) {
      EXPECT_TRUE(ta.column(c)->GetValue(r) == tb.column(c)->GetValue(r))
          << "cell (" << r << "," << c << ") differs at scale " << kScale;
    }
  }
}

TEST_P(DatasetRowsTest, ScaleOneReproducesLegacyTable) {
  auto legacy = MakeDataset(GetParam().id);
  auto scaled = MakeDataset(GetParam().id, 1);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(scaled.ok());
  const Table& ta = *legacy.value().table;
  const Table& tb = *scaled.value().table;
  ASSERT_EQ(ta.num_rows(), tb.num_rows());
  for (int64_t r = 0; r < ta.num_rows(); r += 97) {
    for (int c = 0; c < ta.num_columns(); ++c) {
      EXPECT_TRUE(ta.column(c)->GetValue(r) == tb.column(c)->GetValue(r))
          << "cell (" << r << "," << c << ") differs";
    }
  }
}

class DatasetGenericTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetGenericTest, FocalAttributesExistInSchema) {
  auto dataset = MakeDataset(GetParam());
  ASSERT_TRUE(dataset.ok());
  EXPECT_FALSE(dataset.value().info.focal_attributes.empty());
  for (const auto& attr : dataset.value().info.focal_attributes) {
    EXPECT_GE(dataset.value().table->FindColumn(attr), 0)
        << "missing focal attribute " << attr;
  }
}

TEST_P(DatasetGenericTest, GenerationIsDeterministic) {
  auto a = MakeDataset(GetParam());
  auto b = MakeDataset(GetParam());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Table& ta = *a.value().table;
  const Table& tb = *b.value().table;
  ASSERT_EQ(ta.num_rows(), tb.num_rows());
  ASSERT_EQ(ta.num_columns(), tb.num_columns());
  // Spot-check a stripe of cells for equality.
  for (int64_t r = 0; r < ta.num_rows(); r += 97) {
    for (int c = 0; c < ta.num_columns(); ++c) {
      EXPECT_TRUE(ta.column(c)->GetValue(r) == tb.column(c)->GetValue(r))
          << "cell (" << r << "," << c << ") differs";
    }
  }
}

TEST_P(DatasetGenericTest, NoColumnIsAllNull) {
  auto dataset = MakeDataset(GetParam());
  ASSERT_TRUE(dataset.ok());
  const Table& t = *dataset.value().table;
  for (int c = 0; c < t.num_columns(); ++c) {
    EXPECT_LT(t.column(c)->null_count(), t.num_rows())
        << "column " << t.column_name(c);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetGenericTest,
                         ::testing::Values("cyber1", "cyber2", "cyber3",
                                           "cyber4", "flights1", "flights2",
                                           "flights3", "flights4"));

TEST(RegistryTest, UnknownIdIsNotFound) {
  auto r = MakeDataset("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, MakeAllDatasetsReturnsEight) {
  auto all = MakeAllDatasets();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 8u);
  EXPECT_EQ(ExperimentalDatasetIds().size(), 8u);
}

// ----------------------------------------------- kernel/scalar A/B parity
//
// The acceptance bar for the chunked kernels: on every experimental dataset
// (and scaled variants) every display the environment can request —
// filtered row sets and grouped results — is bit-identical between
// FilterRows/GroupAggregate and the scalar reference
// (tests/support/reference_ops.h).

void ExpectGroupedBitIdenticalAb(const Table& t, const GroupedResult& a,
                                 const ReferenceGroupedResult& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  EXPECT_EQ(a.key_names, b.key_names);
  EXPECT_EQ(a.agg_name, b.agg_name);
  for (size_t g = 0; g < a.groups.size(); ++g) {
    for (size_t k = 0; k < b.groups[g].keys.size(); ++k) {
      EXPECT_EQ(a.Key(t, g, k), b.groups[g].keys[k])
          << "group " << g << " key " << k;
    }
    EXPECT_EQ(a.groups[g].size, b.groups[g].size) << "group " << g;
    EXPECT_EQ(a.groups[g].agg_valid, b.groups[g].agg_valid) << "group " << g;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.groups[g].aggregate),
              std::bit_cast<uint64_t>(b.groups[g].aggregate))
        << "group " << g;
  }
}

class KernelAbTest : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelAbTest, DisplaysBitIdenticalScalarVsKernel) {
  for (int scale : {1, 5}) {
    auto dataset = MakeDataset(GetParam(), scale);
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    const Table& t = *dataset.value().table;
    const std::vector<int32_t> all = AllRows(t).value();

    int first_numeric = -1;
    for (int c = 0; c < t.num_columns(); ++c) {
      const Column& col = *t.column(c);

      // Representative predicates drawn from the column's own values, the
      // way the environment's token binning would.
      std::vector<std::pair<CompareOp, Value>> preds;
      if (col.type() == DataType::kString) {
        auto tokens = TokenFrequencies(col, all);
        if (!tokens.empty()) {
          preds.emplace_back(CompareOp::kEq, col.KeyValue(tokens.front().key));
          preds.emplace_back(CompareOp::kNeq, col.KeyValue(tokens.back().key));
          const std::string top = col.KeyValue(tokens.front().key).ToString();
          preds.emplace_back(
              CompareOp::kContains,
              Value(top.substr(0, std::max<size_t>(1, top.size() / 2))));
          preds.emplace_back(CompareOp::kStartsWith,
                             Value(top.substr(0, 1)));
        }
      } else {
        if (first_numeric < 0) first_numeric = c;
        for (int64_t r = 0; r < t.num_rows(); ++r) {
          if (col.IsNull(r)) continue;
          preds.emplace_back(CompareOp::kGt, col.GetValue(r));
          preds.emplace_back(CompareOp::kLe, col.GetValue(r));
          preds.emplace_back(CompareOp::kEq, col.GetValue(r));
          break;
        }
      }
      for (const auto& [op, term] : preds) {
        auto kernel = FilterRows(t, all, c, op, term);
        ASSERT_TRUE(kernel.ok()) << kernel.status();
        EXPECT_EQ(kernel.value(), ScalarFilterRows(t, all, c, op, term))
            << GetParam() << " scale " << scale << " column "
            << t.column_name(c) << " op " << CompareOpSymbol(op);
      }

      // COUNT(*) grouped by this column.
      GroupSpec spec;
      spec.group_columns = {c};
      auto kernel_g = GroupAggregate(t, all, spec);
      ASSERT_TRUE(kernel_g.ok());
      ExpectGroupedBitIdenticalAb(t, kernel_g.value(),
                                  ScalarGroupAggregate(t, all, spec));
    }

    // One AVG display over the first numeric column, grouped by the first
    // string column — the shape the paper's sessions use most.
    int first_string = -1;
    for (int c = 0; c < t.num_columns(); ++c) {
      if (t.column(c)->type() == DataType::kString) {
        first_string = c;
        break;
      }
    }
    if (first_string >= 0 && first_numeric >= 0) {
      GroupSpec avg;
      avg.group_columns = {first_string};
      avg.agg = AggFunc::kAvg;
      avg.agg_column = first_numeric;
      auto kernel_g = GroupAggregate(t, all, avg);
      ASSERT_TRUE(kernel_g.ok());
      ExpectGroupedBitIdenticalAb(t, kernel_g.value(),
                                  ScalarGroupAggregate(t, all, avg));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, KernelAbTest,
                         ::testing::Values("cyber1", "cyber2", "cyber3",
                                           "cyber4", "flights1", "flights2",
                                           "flights3", "flights4"));

// ---------------------------------------------------- planted phenomena

/// Helper: COUNT(*) group-by over one column, returning key->count.
std::map<std::string, double> CountBy(const Table& t, const char* column) {
  GroupSpec spec;
  spec.group_columns = {t.FindColumn(column)};
  auto grouped = GroupAggregate(t, AllRows(t).value(), spec);
  EXPECT_TRUE(grouped.ok());
  std::map<std::string, double> out;
  const auto& groups = grouped.value().groups;
  for (size_t g = 0; g < groups.size(); ++g) {
    out[grouped.value().Key(t, g, 0).ToString()] = groups[g].aggregate;
  }
  return out;
}

/// Helper: AVG(value_column) grouped by key_column.
std::map<std::string, double> AvgBy(const Table& t, const char* key_column,
                                    const char* value_column) {
  GroupSpec spec;
  spec.group_columns = {t.FindColumn(key_column)};
  spec.agg = AggFunc::kAvg;
  spec.agg_column = t.FindColumn(value_column);
  auto grouped = GroupAggregate(t, AllRows(t).value(), spec);
  EXPECT_TRUE(grouped.ok());
  std::map<std::string, double> out;
  const auto& groups = grouped.value().groups;
  for (size_t g = 0; g < groups.size(); ++g) {
    out[grouped.value().Key(t, g, 0).ToString()] = groups[g].aggregate;
  }
  return out;
}

TEST(Cyber1Test, IcmpScanIsPlanted) {
  auto dataset = MakeDataset("cyber1");
  ASSERT_TRUE(dataset.ok());
  const Table& t = *dataset.value().table;

  auto by_protocol = CountBy(t, "protocol");
  EXPECT_GT(by_protocol["ICMP"], 5000.0);  // the sweep dominates
  auto by_source = CountBy(t, "source_ip");
  EXPECT_GT(by_source["10.0.66.66"], 5000.0);  // single noisy attacker

  // Exactly three hosts send echo replies.
  auto reply_rows = FilterRows(t, AllRows(t).value(), t.FindColumn("info"),
                               CompareOp::kEq,
                               Value(std::string("Echo (ping) reply")));
  ASSERT_TRUE(reply_rows.ok());
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_ip")};
  auto repliers = GroupAggregate(t, reply_rows.value(), spec);
  ASSERT_TRUE(repliers.ok());
  EXPECT_EQ(repliers.value().groups.size(), 3u);
}

TEST(Cyber2Test, RceAttackIsPlanted) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  const Table& t = *dataset.value().table;
  auto cgi_rows = FilterRows(t, AllRows(t).value(), t.FindColumn("uri"),
                             CompareOp::kEq,
                             Value(std::string("/cgi-bin/status.cgi")));
  ASSERT_TRUE(cgi_rows.ok());
  EXPECT_EQ(cgi_rows.value().size(), 40u);
  // All from the attacker.
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_ip")};
  auto sources = GroupAggregate(t, cgi_rows.value(), spec);
  ASSERT_TRUE(sources.ok());
  ASSERT_EQ(sources.value().groups.size(), 1u);
  EXPECT_EQ(sources.value().Key(t, 0, 0).as_string(), "203.0.113.99");
}

TEST(Cyber3Test, PhishingHostIsPlanted) {
  auto dataset = MakeDataset("cyber3");
  ASSERT_TRUE(dataset.ok());
  const Table& t = *dataset.value().table;
  auto phish = FilterRows(t, AllRows(t).value(), t.FindColumn("host"), CompareOp::kEq,
                          Value(std::string("secure-bank1-login.xyz")));
  ASSERT_TRUE(phish.ok());
  EXPECT_EQ(phish.value().size(), 55u);
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_ip")};
  auto victims = GroupAggregate(t, phish.value(), spec);
  ASSERT_TRUE(victims.ok());
  EXPECT_EQ(victims.value().groups.size(), 6u);
}

TEST(Cyber4Test, PortScanIsPlanted) {
  auto dataset = MakeDataset("cyber4");
  ASSERT_TRUE(dataset.ok());
  const Table& t = *dataset.value().table;
  auto synack = FilterRows(t, AllRows(t).value(), t.FindColumn("tcp_flags"),
                           CompareOp::kEq, Value(std::string("SYN, ACK")));
  ASSERT_TRUE(synack.ok());
  // Open ports answer SYN-ACK: mostly from the victim (plus background).
  auto from_victim = FilterRows(t, synack.value(), t.FindColumn("source_ip"),
                                CompareOp::kEq,
                                Value(std::string("192.168.10.5")));
  ASSERT_TRUE(from_victim.ok());
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_port")};
  auto open_ports = GroupAggregate(t, from_victim.value(), spec);
  ASSERT_TRUE(open_ports.ok());
  EXPECT_EQ(open_ports.value().groups.size(), 4u);  // 22, 80, 443, 445
}

TEST(FlightsTest, JuneDelaysAreLongest) {
  auto dataset = MakeDataset("flights2");
  ASSERT_TRUE(dataset.ok());
  auto by_month = AvgBy(*dataset.value().table, "month", "departure_delay");
  double june = by_month["June"];
  int months_below = 0;
  for (const auto& [month, delay] : by_month) {
    if (month != "June" && delay < june) ++months_below;
  }
  // June tops (essentially) every other month.
  EXPECT_GE(months_below, 10);
}

TEST(FlightsTest, LaxAndAtlSufferExtraJuneDelays) {
  auto dataset = MakeDataset("flights1");
  ASSERT_TRUE(dataset.ok());
  const Table& t = *dataset.value().table;
  auto june_rows = FilterRows(t, AllRows(t).value(), t.FindColumn("month"),
                              CompareOp::kEq, Value(std::string("June")));
  ASSERT_TRUE(june_rows.ok());
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("origin_airport")};
  spec.agg = AggFunc::kAvg;
  spec.agg_column = t.FindColumn("departure_delay");
  auto grouped = GroupAggregate(t, june_rows.value(), spec);
  ASSERT_TRUE(grouped.ok());
  double lax = 0, atl = 0, others = 0;
  int other_count = 0;
  for (size_t i = 0; i < grouped.value().groups.size(); ++i) {
    const Group& g = grouped.value().groups[i];
    const std::string airport = grouped.value().Key(t, i, 0).as_string();
    if (airport == "LAX") {
      lax = g.aggregate;
    } else if (airport == "ATL") {
      atl = g.aggregate;
    } else {
      others += g.aggregate;
      ++other_count;
    }
  }
  ASSERT_GT(other_count, 0);
  others /= other_count;
  EXPECT_GT(lax, others + 5.0);
  EXPECT_GT(atl, others + 5.0);
}

TEST(FlightsTest, ConstraintsHold) {
  auto f1 = MakeDataset("flights1");
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(CountBy(*f1.value().table, "airline").size(), 1u);
  EXPECT_EQ(CountBy(*f1.value().table, "day_of_week").size(), 1u);

  auto f3 = MakeDataset("flights3");
  ASSERT_TRUE(f3.ok());
  auto origins = CountBy(*f3.value().table, "origin_airport");
  ASSERT_EQ(origins.size(), 1u);
  EXPECT_EQ(origins.begin()->first, "SFO");

  auto f4 = MakeDataset("flights4");
  ASSERT_TRUE(f4.ok());
  const Table& t = *f4.value().table;
  int dist_col = t.FindColumn("distance");
  int dep_col = t.FindColumn("scheduled_departure");
  for (int64_t r = 0; r < t.num_rows(); r += 53) {
    EXPECT_LE(t.column(dist_col)->GetInt(r), 500);
    int64_t hhmm = t.column(dep_col)->GetInt(r);
    EXPECT_TRUE(hhmm >= 2200 || hhmm < 500) << hhmm;
  }
}

}  // namespace
}  // namespace atena
