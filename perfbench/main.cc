// Product-path benchmark program.
//
//   perfbench_atena --workload train|serve --seed N
//                   --seconds S --trace 0|1 [--smoke] [--scratch DIR]
//
// Runs one workload for about S seconds of timed work and prints, as the
// last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer table derived from the traced run's spans (which are
// also written to DIR as CSV). A failed correctness check prints
// "correct": false with no metrics and exits 1. --smoke shrinks every
// size so the whole path runs in seconds; it is for tests, not numbers.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "eval/metrics.h"
#include "workloads.h"

namespace perfbench {

void AddEndToEnd(const EndToEnd& e2e, RunResult* result) {
  result->Add("setup_s", e2e.setup_s, "s");
  result->Add("steps_per_s", e2e.steps_per_s, "1/s");
  result->Add("time_to_notebook_s", e2e.time_to_notebook_s, "s");
  result->Add("mean_reward", e2e.mean_reward, "reward");
  result->Add("eda_sim", e2e.eda_sim, "score");
  result->Add("precision", e2e.precision, "score");
  result->Add("peak_rss_mb", e2e.peak_rss_mb, "MB");
}

void AddPerLayer(const PerLayer& l, RunResult* result) {
  result->Add("data.make_s", l.data_make_s, "s");
  result->Add("coherency.build_s", l.coherency_build_s, "s");
  result->Add("rl.rollout_ms", l.rl_rollout_ms, "ms");
  result->Add("rl.update_ms", l.rl_update_ms, "ms");
  result->Add("rl.updates", l.rl_updates, "count");
  result->Add("rl.optimizer_ms", l.rl_optimizer_ms, "ms");
  result->Add("rl.train_s", l.rl_train_s, "s");
  result->Add("nn.act_batch_ms", l.nn_act_batch_ms, "ms");
  result->Add("nn.act_batch_calls", l.nn_act_batch_calls, "count");
  result->Add("nn.forward_batch_ms", l.nn_forward_batch_ms, "ms");
  result->Add("nn.backward_batch_ms", l.nn_backward_batch_ms, "ms");
  result->Add("reward.calls", l.reward_calls, "count");
  result->Add("reward.compute_ms", l.reward_compute_ms, "ms");
  result->Add("reward.p50_us", l.reward_p50_us, "us");
  result->Add("eda.cache_hits", l.eda_cache_hits, "count");
  result->Add("eda.cache_misses", l.eda_cache_misses, "count");
  result->Add("eda.cache_hit_rate", l.eda_cache_hit_rate, "ratio");
  result->Add("eda.cache_evictions", l.eda_cache_evictions, "count");
  result->Add("eda.cache_resident_mb", l.eda_cache_resident_mb, "MB");
  result->Add("serve.ticks", l.serve_ticks, "count");
  result->Add("serve.tick_ms", l.serve_tick_ms, "ms");
  result->Add("serve.tick_p50_ms", l.serve_tick_p50_ms, "ms");
  result->Add("serve.tick_p99_ms", l.serve_tick_p99_ms, "ms");
  result->Add("serve.session_p99_ms", l.serve_session_p99_ms, "ms");
  result->Add("serve.tick_self_ms", l.serve_tick_self_ms, "ms");
  result->Add("serve.admit_us", l.serve_admit_us, "us");
  result->Add("serve.deliver_ms", l.serve_deliver_ms, "ms");
  result->Add("serve.journal_appends", l.serve_journal_appends, "count");
  result->Add("serve.journal_bytes", l.serve_journal_bytes, "bytes");
  result->Add("serve.journal_syncs", l.serve_journal_syncs, "count");
  result->Add("serve.journal_compactions", l.serve_journal_compactions,
              "count");
  result->Add("serve.quarantined", l.serve_quarantined, "count");
  result->Add("serve.shed", l.serve_shed, "count");
  result->Add("serve.deadline_retired", l.serve_deadline_retired, "count");
  result->Add("index.query_us", l.index_query_us, "us");
  result->Add("index.notebooks_registered", l.index_notebooks_registered,
              "count");
  result->Add("eval.score_ms", l.eval_score_ms, "ms");
  result->Add("notebook.render_ms", l.notebook_render_ms, "ms");
  result->Add("common.cpu_util", l.common_cpu_util, "ratio");
  result->Add("bench.trace_overhead_pct", l.bench_trace_overhead_pct, "%");
  result->Add("bench.unattributed_pct", l.bench_unattributed_pct, "%");
}

Quality ScoreNotebook(
    const std::vector<atena::ViewSignature>& notebook,
    const std::vector<std::vector<atena::ViewSignature>>& gold) {
  const atena::AedaScores scores = atena::ComputeAedaScores(notebook, gold);
  return Quality{scores.eda_sim, scores.precision};
}

void DumpSpans(const Tracer& tracer, const RunOptions& options) {
  const std::string path = options.scratch + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-spans.csv";
  if (tracer.WriteCsv(path)) {
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
  }
}

namespace {

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (value == nullptr) return false;
    ++i;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value);
    } else if (flag == "--trace") {
      options->trace = std::string(value) == "1";
    } else if (flag == "--scratch") {
      options->scratch = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

void PrintJson(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  if (result.correct) {
    for (size_t i = 0; i < result.metrics.size(); ++i) {
      const Metric& m = result.metrics[i];
      const double value = std::isfinite(m.value) ? m.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload train|serve --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--scratch DIR]\n",
                 argv[0]);
    return 2;
  }
  if (options.scratch.empty()) options.scratch = "perfbench_scratch";
  std::filesystem::create_directories(options.scratch);
  atena::SetLogLevel(atena::LogLevel::kWarning);

  RunResult result;
  if (options.workload == "train") {
    result = RunTrain(options);
  } else if (options.workload == "serve") {
    result = RunServe(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (!result.correct) {
    std::fprintf(stderr, "correctness check failed: %s\n",
                 result.error.c_str());
  }
  PrintJson(result);
  return result.correct ? 0 : 1;
}
