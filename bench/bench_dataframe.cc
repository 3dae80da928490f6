// Micro-benchmarks of the dataframe substrate: filter, group-by/aggregate
// and column-statistics kernels on the largest experimental dataset and on
// cyber1's all-distinct key columns, cyber1's table build at 1x and 100x,
// plus million-row scalar-vs-kernel pairs on a scaled variant (row count
// overridable via ATENA_BENCH_ROWS); the _Scalar rows time the reference
// implementations in tests/support/reference_ops.h. Results go to the JSON
// summary named by --bench_json (see bench_json.h); scripts/bench.sh writes
// BENCH_dataframe.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>

#include "bench_json.h"
#include "data/registry.h"
#include "dataframe/ops.h"
#include "dataframe/stats.h"
#include "eda/binning.h"
#include "eda/environment.h"
#include "support/reference_ops.h"

namespace atena {
namespace {

const Dataset& BigDataset() {
  static const Dataset& dataset = *new Dataset(
      MakeDataset("cyber4").value());
  return dataset;
}

/// cyber4 scaled to at least ATENA_BENCH_ROWS rows (default 1M). The env
/// override lets the ctest smoke run keep this to a few thousand rows.
const Dataset& MillionRowDataset() {
  static const Dataset& dataset = *[] {
    int64_t target = 1'000'000;
    if (const char* env = std::getenv("ATENA_BENCH_ROWS")) {
      target = std::max<int64_t>(int64_t{1}, std::atoll(env));
    }
    const int scale = static_cast<int>((target + 13624) / 13625);
    return new Dataset(MakeDataset("cyber4", scale).value());
  }();
  return dataset;
}

void ReportSkipRate(benchmark::State& state, const FilterKernelStats& stats) {
  state.counters["skip_rate"] = stats.skip_rate();
  state.counters["chunks_all_match"] =
      static_cast<double>(stats.chunks_all_match);
}

void BM_FilterStringEq(benchmark::State& state) {
  const Table& t = *BigDataset().table;
  auto rows = AllRows(t).value();
  int col = t.FindColumn("tcp_flags");
  for (auto _ : state) {
    auto out = FilterRows(t, rows, col, CompareOp::kEq,
                          Value(std::string("SYN")));
    benchmark::DoNotOptimize(out.value().size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_FilterStringEq);

void BM_FilterNumericRange(benchmark::State& state) {
  const Table& t = *BigDataset().table;
  auto rows = AllRows(t).value();
  int col = t.FindColumn("destination_port");
  for (auto _ : state) {
    auto out = FilterRows(t, rows, col, CompareOp::kLe, Value(int64_t{1024}));
    benchmark::DoNotOptimize(out.value().size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_FilterNumericRange);

void BM_GroupBySingleColumn(benchmark::State& state) {
  const Table& t = *BigDataset().table;
  auto rows = AllRows(t).value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_ip")};
  for (auto _ : state) {
    auto out = GroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.value().groups.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupBySingleColumn);

void BM_GroupByTwoColumnsAvg(benchmark::State& state) {
  const Table& t = *BigDataset().table;
  auto rows = AllRows(t).value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_ip"), t.FindColumn("tcp_flags")};
  spec.agg = AggFunc::kAvg;
  spec.agg_column = t.FindColumn("length");
  for (auto _ : state) {
    auto out = GroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.value().groups.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupByTwoColumnsAvg);

void BM_ColumnStats(benchmark::State& state) {
  const Table& t = *BigDataset().table;
  auto rows = AllRows(t).value();
  const Column& col = *t.column(t.FindColumn("destination_port"));
  for (auto _ : state) {
    auto stats = ComputeColumnStats(col, rows);
    benchmark::DoNotOptimize(stats.entropy);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ColumnStats);

// Column statistics at the environment's default stats_row_cap: the
// 4,096-row stride sample of a selection (EdaEnvironment::CapRows), the
// selection size every observation encode and reward histogram works on.
std::vector<int32_t> StatsSample(const std::vector<int32_t>& rows) {
  constexpr int kRows = 4096;
  if (rows.size() <= static_cast<size_t>(kRows)) return rows;
  std::vector<int32_t> out;
  out.reserve(kRows);
  const double stride = static_cast<double>(rows.size()) / kRows;
  for (int i = 0; i < kRows; ++i) {
    out.push_back(rows[static_cast<size_t>(i * stride)]);
  }
  return out;
}

void RunColumnStats4K(benchmark::State& state, const char* column) {
  const Table& t = *BigDataset().table;
  const auto rows = StatsSample(AllRows(t).value());
  const Column& col = *t.column(t.FindColumn(column));
  for (auto _ : state) {
    auto stats = ComputeColumnStats(col, rows);
    benchmark::DoNotOptimize(stats.entropy);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}

void BM_ColumnStats4K_KeyInt(benchmark::State& state) {
  RunColumnStats4K(state, "packet_id");
}
BENCHMARK(BM_ColumnStats4K_KeyInt);

void BM_ColumnStats4K_Float(benchmark::State& state) {
  RunColumnStats4K(state, "timestamp");
}
BENCHMARK(BM_ColumnStats4K_Float);

void BM_ColumnStats4K_Dictionary(benchmark::State& state) {
  RunColumnStats4K(state, "source_ip");
}
BENCHMARK(BM_ColumnStats4K_Dictionary);

void BM_TokenFrequencies(benchmark::State& state) {
  const Table& t = *BigDataset().table;
  auto rows = AllRows(t).value();
  const Column& col = *t.column(t.FindColumn("source_ip"));
  for (auto _ : state) {
    auto tokens = TokenFrequencies(col, rows);
    benchmark::DoNotOptimize(tokens.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_TokenFrequencies);

void BM_FilterStringNeq(benchmark::State& state) {
  const Table& t = *BigDataset().table;
  auto rows = AllRows(t).value();
  int col = t.FindColumn("tcp_flags");
  for (auto _ : state) {
    auto out = FilterRows(t, rows, col, CompareOp::kNeq,
                          Value(std::string("SYN")));
    benchmark::DoNotOptimize(out.value().size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_FilterStringNeq);

void BM_GroupByThreeColumns(benchmark::State& state) {
  const Table& t = *BigDataset().table;
  auto rows = AllRows(t).value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_ip"), t.FindColumn("tcp_flags"),
                        t.FindColumn("destination_port")};
  for (auto _ : state) {
    auto out = GroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.value().groups.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupByThreeColumns);

// ------------------------------------------------- cyber1 key columns
//
// The shapes the product pays for most, on cyber1 (the dataset the
// end-to-end benchmark trains and serves on): COUNT by an all-distinct key
// column — timestamp (a double) and packet_id (an int) — COUNT by a
// two-column key whose second column is all-distinct (a code space past
// 2^16: the hashed composite key) and by protocol x info (the dense
// composite tally), the token list of the timestamp column at the
// environment's 4,096-row stats cap and its filter-term binning, the
// FILTER reward's per-attribute KL, and the table build.
const Dataset& Cyber1() {
  static const Dataset& dataset = *new Dataset(MakeDataset("cyber1").value());
  return dataset;
}

void BM_GroupByKeyColumn(benchmark::State& state, const char* column) {
  const Table& t = *Cyber1().table;
  auto rows = AllRows(t).value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn(column)};
  for (auto _ : state) {
    auto out = GroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.value().groups.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK_CAPTURE(BM_GroupByKeyColumn, timestamp, "timestamp");
BENCHMARK_CAPTURE(BM_GroupByKeyColumn, packet_id, "packet_id");

// COUNT by timestamp over a small filtered display (the ARP rows, ~6% of
// cyber1): a key whose code space is many times the selection.
void BM_GroupByKeyColumnFiltered(benchmark::State& state) {
  const Table& t = *Cyber1().table;
  const auto rows = FilterRows(t, AllRows(t).value(), t.FindColumn("protocol"),
                               CompareOp::kEq, Value(std::string("ARP")))
                        .value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("timestamp")};
  for (auto _ : state) {
    auto out = GroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.value().groups.size());
  }
  state.counters["rows"] = static_cast<double>(rows.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_GroupByKeyColumnFiltered);

void BM_GroupByTwoColumnsKeyed(benchmark::State& state) {
  const Table& t = *Cyber1().table;
  auto rows = AllRows(t).value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("protocol"), t.FindColumn("timestamp")};
  for (auto _ : state) {
    auto out = GroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.value().groups.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupByTwoColumnsKeyed);

void BM_GroupByProtocolInfo(benchmark::State& state) {
  const Table& t = *Cyber1().table;
  auto rows = AllRows(t).value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("protocol"), t.FindColumn("info")};
  for (auto _ : state) {
    auto out = GroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.value().groups.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupByProtocolInfo);

void BM_TokenFrequenciesKeyColumn(benchmark::State& state) {
  const Table& t = *Cyber1().table;
  const auto rows = StatsSample(AllRows(t).value());
  const Column& col = *t.column(t.FindColumn("timestamp"));
  for (auto _ : state) {
    auto tokens = TokenFrequencies(col, rows);
    benchmark::DoNotOptimize(tokens.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_TokenFrequenciesKeyColumn);

// The FILTER action's term binning (paper §5) over the same token list,
// 4,096 tokens that all share one count, at the environment's bin count.
void BM_TermBinningKeyColumn(benchmark::State& state) {
  const Table& t = *Cyber1().table;
  const auto rows = StatsSample(AllRows(t).value());
  const auto tokens =
      TokenFrequencies(*t.column(t.FindColumn("timestamp")), rows);
  for (auto _ : state) {
    TermBinning binning(tokens, EnvConfig().num_term_bins);
    benchmark::DoNotOptimize(binning.BinSize(0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tokens.size()));
}
BENCHMARK(BM_TermBinningKeyColumn);

// The FILTER reward's per-attribute deviation at its measured shape: the
// 4,096-row stride sample of cyber1's root display (the previous display)
// against a filtered child (the current one), on a column the reward
// compares (distinct ratio at most 0.5).
void BM_SelectionKl4K(benchmark::State& state) {
  const Table& t = *Cyber1().table;
  const auto all = AllRows(t).value();
  const auto root = StatsSample(all);
  const auto child = StatsSample(
      FilterRows(t, all, t.FindColumn("protocol"), CompareOp::kEq,
                 Value(std::string("TCP")))
          .value());
  const Column& col = *t.column(t.FindColumn("length"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectionKlDivergence(col, child, root));
  }
  state.counters["p_keys"] =
      static_cast<double>(ComputeColumnStats(col, child).distinct);
  state.counters["q_keys"] =
      static_cast<double>(ComputeColumnStats(col, root).distinct);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(root.size() + child.size()));
}
BENCHMARK(BM_SelectionKl4K);

// The table build every run starts with: generate cyber1, code its
// columns and count their distinct values (Table::Make's distinct ratios).
void BM_MakeDataset(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto dataset = MakeDataset("cyber1", scale);
    benchmark::DoNotOptimize(dataset.value().table->num_rows());
  }
}
BENCHMARK(BM_MakeDataset)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MakeDataset)
    ->Arg(100)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------- million-row scalar vs kernel
//
// Each pair runs the identical operation through the scalar reference and
// the production kernel (FilterRows / GroupAggregate) on the scaled table;
// items_per_second is the rows/sec figure the roadmap tracks, and kernel
// variants report the zone-map skip rate.

void BM_Filter1M_NumericRange_Scalar(benchmark::State& state) {
  const Table& t = *MillionRowDataset().table;
  auto rows = AllRows(t).value();
  int col = t.FindColumn("destination_port");
  for (auto _ : state) {
    auto out = ScalarFilterRows(t, rows, col, CompareOp::kLe,
                                Value(int64_t{1024}));
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_Filter1M_NumericRange_Scalar);

void BM_Filter1M_NumericRange_Kernel(benchmark::State& state) {
  const Table& t = *MillionRowDataset().table;
  auto rows = AllRows(t).value();
  int col = t.FindColumn("destination_port");
  FilterKernelStats stats;
  for (auto _ : state) {
    stats = {};
    auto out = FilterRows(t, rows, col, CompareOp::kLe, Value(int64_t{1024}),
                          &stats);
    benchmark::DoNotOptimize(out.value().size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
  ReportSkipRate(state, stats);
}
BENCHMARK(BM_Filter1M_NumericRange_Kernel);

void BM_Filter1M_StringEq_Scalar(benchmark::State& state) {
  const Table& t = *MillionRowDataset().table;
  auto rows = AllRows(t).value();
  int col = t.FindColumn("tcp_flags");
  for (auto _ : state) {
    auto out = ScalarFilterRows(t, rows, col, CompareOp::kEq,
                                Value(std::string("SYN")));
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_Filter1M_StringEq_Scalar);

void BM_Filter1M_StringEq_Kernel(benchmark::State& state) {
  const Table& t = *MillionRowDataset().table;
  auto rows = AllRows(t).value();
  int col = t.FindColumn("tcp_flags");
  FilterKernelStats stats;
  for (auto _ : state) {
    stats = {};
    auto out = FilterRows(t, rows, col, CompareOp::kEq,
                          Value(std::string("SYN")), &stats);
    benchmark::DoNotOptimize(out.value().size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
  ReportSkipRate(state, stats);
}
BENCHMARK(BM_Filter1M_StringEq_Kernel);

void BM_Filter1M_Contains_Scalar(benchmark::State& state) {
  const Table& t = *MillionRowDataset().table;
  auto rows = AllRows(t).value();
  int col = t.FindColumn("tcp_flags");
  for (auto _ : state) {
    auto out = ScalarFilterRows(t, rows, col, CompareOp::kContains,
                                Value(std::string("ACK")));
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_Filter1M_Contains_Scalar);

void BM_Filter1M_Contains_Kernel(benchmark::State& state) {
  const Table& t = *MillionRowDataset().table;
  auto rows = AllRows(t).value();
  int col = t.FindColumn("tcp_flags");
  FilterKernelStats stats;
  for (auto _ : state) {
    stats = {};
    auto out = FilterRows(t, rows, col, CompareOp::kContains,
                          Value(std::string("ACK")), &stats);
    benchmark::DoNotOptimize(out.value().size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
  ReportSkipRate(state, stats);
}
BENCHMARK(BM_Filter1M_Contains_Kernel);

void BM_GroupBy1M_Count_Scalar(benchmark::State& state) {
  const Table& t = *MillionRowDataset().table;
  auto rows = AllRows(t).value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_ip")};
  for (auto _ : state) {
    auto out = ScalarGroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.groups.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupBy1M_Count_Scalar);

void BM_GroupBy1M_Count_Kernel(benchmark::State& state) {
  const Table& t = *MillionRowDataset().table;
  auto rows = AllRows(t).value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_ip")};
  for (auto _ : state) {
    auto out = GroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.value().groups.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupBy1M_Count_Kernel);

void BM_GroupBy1M_Avg_Scalar(benchmark::State& state) {
  const Table& t = *MillionRowDataset().table;
  auto rows = AllRows(t).value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_ip")};
  spec.agg = AggFunc::kAvg;
  spec.agg_column = t.FindColumn("length");
  for (auto _ : state) {
    auto out = ScalarGroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.groups.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupBy1M_Avg_Scalar);

void BM_GroupBy1M_Avg_Kernel(benchmark::State& state) {
  const Table& t = *MillionRowDataset().table;
  auto rows = AllRows(t).value();
  GroupSpec spec;
  spec.group_columns = {t.FindColumn("source_ip")};
  spec.agg = AggFunc::kAvg;
  spec.agg_column = t.FindColumn("length");
  for (auto _ : state) {
    auto out = GroupAggregate(t, rows, spec);
    benchmark::DoNotOptimize(out.value().groups.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupBy1M_Avg_Kernel);

}  // namespace
}  // namespace atena

int main(int argc, char** argv) {
  const std::string json_path = atena::bench::TakeJsonPath(&argc, argv);
  const std::vector<std::string> args(argv, argv + argc);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  atena::bench::JsonFileReporter reporter(json_path, args);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
