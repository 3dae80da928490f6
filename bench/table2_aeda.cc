// Regenerates paper Table 2: overall A-EDA benchmark results — Precision,
// T-BLEU-1/2/3 and EDA-Sim for every automatic baseline plus EDA-Traces,
// averaged across the 8 experimental datasets. Set ATENA_TRAIN_STEPS to
// scale the DRL training budget (default 12000 steps per agent).
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "common/logging.h"

namespace atena {
namespace {

struct Accumulator {
  AedaScores total;
  int count = 0;
  void Add(const AedaScores& s) {
    total.precision += s.precision;
    total.t_bleu_1 += s.t_bleu_1;
    total.t_bleu_2 += s.t_bleu_2;
    total.t_bleu_3 += s.t_bleu_3;
    total.eda_sim += s.eda_sim;
    ++count;
  }
  std::vector<double> Mean() const {
    const double n = count > 0 ? count : 1;
    return {total.precision / n, total.t_bleu_1 / n, total.t_bleu_2 / n,
            total.t_bleu_3 / n, total.eda_sim / n};
  }
};

int Run() {
  AtenaOptions options = bench::ExperimentOptions();
  auto datasets = MakeAllDatasets();
  if (!datasets.ok()) {
    std::fprintf(stderr, "error: %s\n", datasets.status().ToString().c_str());
    return 1;
  }

  std::map<std::string, Accumulator> rows;
  for (const auto& dataset : datasets.value()) {
    auto gold = bench::GoldViews(dataset, options.env);
    if (!gold.ok()) {
      std::fprintf(stderr, "gold error (%s): %s\n", dataset.info.id.c_str(),
                   gold.status().ToString().c_str());
      return 1;
    }

    for (BaselineKind kind : AllBaselines()) {
      auto run = RunBaseline(kind, dataset, options);
      if (!run.ok()) {
        std::fprintf(stderr, "baseline %s failed on %s: %s\n",
                     BaselineName(kind), dataset.info.id.c_str(),
                     run.status().ToString().c_str());
        return 1;
      }
      AedaScores scores = ComputeAedaScores(
          NotebookSignatures(run.value().notebook), gold.value());
      rows[BaselineName(kind)].Add(scores);
      std::fprintf(stderr, "  [%s] %s done (eda_sim %.3f)\n",
                   dataset.info.id.c_str(), BaselineName(kind),
                   scores.eda_sim);
    }

    auto traces = SimulatedTraceNotebooks(dataset, options.env);
    if (!traces.ok()) return 1;
    for (const auto& trace : traces.value()) {
      rows["EDA-Traces"].Add(
          ComputeAedaScores(NotebookSignatures(trace), gold.value()));
    }
  }

  std::printf(
      "Table 2: Overall A-EDA Benchmark Results (mean over 8 datasets)\n");
  bench::PrintHeader("Baseline", {"Precision", "T-BLEU-1", "T-BLEU-2",
                                  "T-BLEU-3", "EDA-Sim"});
  // Paper row order: the generators, with the human traces before ATENA.
  for (BaselineKind kind : AllBaselines()) {
    if (kind == BaselineKind::kAtena) {
      bench::PrintRow("EDA-Traces", rows["EDA-Traces"].Mean());
    }
    bench::PrintRow(BaselineName(kind), rows[BaselineName(kind)].Mean());
  }
  return 0;
}

}  // namespace
}  // namespace atena

int main() { return atena::Run(); }
