// The benchmark's workloads. Each runs the product path through public
// entry points only, checks its outputs, and fills a RunResult with the
// end-to-end metrics (untraced run) or the per-layer table (traced run).
#ifndef ATENA_PERFBENCH_WORKLOADS_H_
#define ATENA_PERFBENCH_WORKLOADS_H_

#include <vector>

#include "eval/view_signature.h"
#include "measure.h"
#include "trace.h"

namespace perfbench {

/// Stepping threads of every trainer the benchmark runs (RunAtena on
/// `train`, the snapshot training in the serving set-up). Training output
/// is bit-identical at any thread count. On a 4-vCPU host shared with other
/// tenants, 4 lockstep stepping threads made a RunAtena take anywhere from
/// 5.3 to 10 s as the host's load changed, while one thread took 5.0-6.2 s
/// and was never slower when the host was quiet.
constexpr int kTrainerThreads = 1;

/// MakeDataset("cyber1") → RunAtena (4 actors, compound reward, default
/// trainer) → ReplayOperations → RenderMarkdown → ComputeAedaScores.
RunResult RunTrain(const RunOptions& options);

/// Trains a snapshot in set-up, then serves closed-loop sessions through a
/// SessionManager with the compound reward.
RunResult RunServe(const RunOptions& options);

/// The end-to-end metrics every workload prints (named in AddEndToEnd).
struct EndToEnd {
  double setup_s = 0.0;
  double steps_per_s = 0.0;
  double time_to_notebook_s = 0.0;
  double mean_reward = 0.0;
  double eda_sim = 0.0;
  double precision = 0.0;
  double peak_rss_mb = 0.0;
};
void AddEndToEnd(const EndToEnd& e2e, RunResult* result);

/// Per-layer values; every workload prints every one (0 where the layer
/// does no work on that workload). Times are per repeat (one training run
/// or one serving round) unless the name says otherwise.
struct PerLayer {
  double data_make_s = 0.0;
  double coherency_build_s = 0.0;
  double rl_rollout_ms = 0.0;
  double rl_update_ms = 0.0;
  double rl_updates = 0.0;
  double rl_optimizer_ms = 0.0;
  double rl_train_s = 0.0;
  double nn_act_batch_ms = 0.0;
  double nn_act_batch_calls = 0.0;
  double nn_forward_batch_ms = 0.0;
  double nn_backward_batch_ms = 0.0;
  double reward_calls = 0.0;
  double reward_compute_ms = 0.0;
  double reward_p50_us = 0.0;
  double eda_cache_hits = 0.0;
  double eda_cache_misses = 0.0;
  double eda_cache_hit_rate = 0.0;
  double eda_cache_evictions = 0.0;
  double eda_cache_resident_mb = 0.0;
  double serve_ticks = 0.0;
  double serve_tick_ms = 0.0;
  double serve_tick_p50_ms = 0.0;
  double serve_tick_p99_ms = 0.0;
  double serve_session_p99_ms = 0.0;
  double serve_tick_self_ms = 0.0;
  double serve_admit_us = 0.0;
  double serve_deliver_ms = 0.0;
  double serve_journal_appends = 0.0;
  double serve_journal_bytes = 0.0;
  double serve_journal_syncs = 0.0;
  double serve_journal_compactions = 0.0;
  double serve_quarantined = 0.0;
  double serve_shed = 0.0;
  double serve_deadline_retired = 0.0;
  double index_query_us = 0.0;
  double index_notebooks_registered = 0.0;
  double eval_score_ms = 0.0;
  double notebook_render_ms = 0.0;
  double common_cpu_util = 0.0;
  double bench_trace_overhead_pct = 0.0;
  double bench_unattributed_pct = 0.0;
};
void AddPerLayer(const PerLayer& layers, RunResult* result);

/// A-EDA EDA-Sim and precision of one notebook's views against `gold`.
Quality ScoreNotebook(const std::vector<atena::ViewSignature>& notebook,
                      const std::vector<std::vector<atena::ViewSignature>>& gold);

/// Writes the traced run's spans to `<scratch>/<workload>-seed<N>-spans.csv`.
void DumpSpans(const Tracer& tracer, const RunOptions& options);

}  // namespace perfbench

#endif  // ATENA_PERFBENCH_WORKLOADS_H_
