// Macro-benchmark of the multi-session serving runtime (src/serve/): N
// concurrent EDA sessions driven by one shared policy snapshot, with
// mixed arrival/departure — sessions get staggered step budgets and every
// retirement admits a replacement until the simulated workload is
// exhausted, so the batch composition changes while the clock runs.
//
// Every tick issues one ActBatch forward across every live session.
// Results go to the JSON summary named by --bench_json (scripts/bench.sh
// writes BENCH_serve.json) with sessions_per_sec, steps_per_sec,
// p50/p95/p99 per-step latency and the shared display cache's hit rate.
//
// Sessions are served without a reward signal: reward scoring is
// per-session work whose cost is measured by bench_env, and it would only
// dilute what this bench isolates — the serial-act/parallel-step
// scheduler and cross-session batched inference. Per-step latency is
// sampled per tick (every session stepped in a tick experiences that
// tick's duration as its step latency).
//
// Scale overrides: ATENA_SERVE_SESSIONS adds a large run at the given
// concurrency (e.g. 100000) on top of the registered 4/64/1024 configs;
// ATENA_SERVE_STEPS replaces the default 12-step session budget.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "data/registry.h"
#include "eda/reward_interface.h"
#include "reward/diversity.h"
#include "serve/journal.h"
#include "serve/session_manager.h"
#include "serve/snapshot.h"

namespace atena {
namespace {

constexpr uint64_t kSeedBase = 4242;

int StepsPerSession() {
  if (const char* env = std::getenv("ATENA_SERVE_STEPS")) {
    const int steps = std::atoi(env);
    if (steps > 0) return steps;
  }
  return 12;
}

/// Session step budgets are staggered so retirements (and the admissions
/// replacing them) spread across ticks instead of emptying the runtime in
/// one step — the mixed arrival/departure pattern the runtime exists for.
SessionConfig SessionAt(uint64_t index, int base_steps) {
  SessionConfig config;
  config.seed = kSeedBase + index;
  config.max_steps = base_steps + static_cast<int>(index % 5);
  // Serving extracts notebooks with greedy acting (sampling is the
  // training-time mode; its per-row-stream batching is covered by
  // tests/serve_test.cc). Greedy also mirrors a *trained* policy's
  // serving profile: sessions repeat each other's operation paths, so
  // the shared cache absorbs most display work.
  config.greedy = true;
  return config;
}

const std::shared_ptr<const PolicySnapshot>& SharedSnapshot() {
  static const auto* snapshot = [] {
    SnapshotOptions options;
    options.env.episode_length = 12;
    options.env.num_term_bins = 8;
    // Serving-shaped workload: a trained-policy-sized network and tightly
    // capped per-display statistics keep the tick inference-bound — the
    // regime cross-session batching exists for (display execution costs
    // are measured on their own in bench_env).
    options.env.stats_row_cap = 256;
    return new std::shared_ptr<const PolicySnapshot>(
        std::make_shared<PolicySnapshot>(MakeDataset("flights4").value(),
                                         options));
  }();
  return *snapshot;
}

void BM_ServeSessions(benchmark::State& state) {
  const int concurrent = static_cast<int>(state.range(0));
  const int base_steps = StepsPerSession();
  // 50% churn beyond the initial cohort.
  const uint64_t total_sessions =
      static_cast<uint64_t>(concurrent) + static_cast<uint64_t>(concurrent) / 2;

  double measured_seconds = 0.0;
  int64_t total_steps = 0;
  uint64_t total_finished = 0;
  std::vector<double> tick_seconds;
  double hit_rate = 0.0;
  // One manager for the whole run, like a production serving runtime:
  // iterations drain and re-admit sessions, so after the first iteration
  // the display cache is warm and admissions recycle pooled environments —
  // the steady state this bench measures. Only Tick() calls are timed.
  SessionManager manager(SharedSnapshot(), ServeOptions{});
  for (auto _ : state) {
    uint64_t admitted = 0;
    for (; admitted < static_cast<uint64_t>(concurrent); ++admitted) {
      manager.Admit(SessionAt(admitted, base_steps)).value();
    }

    double iteration_seconds = 0.0;
    while (manager.active_sessions() > 0) {
      const auto start = std::chrono::steady_clock::now();
      total_steps += manager.Tick();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      iteration_seconds += elapsed.count();
      tick_seconds.push_back(elapsed.count());
      // Departure → arrival: keep concurrency level until the simulated
      // workload runs out of sessions.
      const auto finished = manager.TakeCompleted();
      total_finished += finished.size();
      for (size_t f = 0; f < finished.size() && admitted < total_sessions;
           ++f, ++admitted) {
        manager.Admit(SessionAt(admitted, base_steps)).value();
      }
    }
    state.SetIterationTime(iteration_seconds);
    measured_seconds += iteration_seconds;
    hit_rate = manager.display_cache()->Snapshot().totals.hit_rate();
  }

  state.counters["concurrent_sessions"] = static_cast<double>(concurrent);
  state.counters["cache_hit_rate"] = hit_rate;
  state.SetItemsProcessed(total_steps);
  const double steps_per_sec =
      measured_seconds > 0.0
          ? static_cast<double>(total_steps) / measured_seconds
          : 0.0;
  state.counters["steps_per_sec"] = steps_per_sec;
  state.counters["sessions_per_sec"] =
      measured_seconds > 0.0
          ? static_cast<double>(total_finished) / measured_seconds
          : 0.0;
  bench::AddLatencyPercentiles(state, tick_seconds, "step_latency");
}
BENCHMARK(BM_ServeSessions)
    ->ArgNames({"sessions"})
    ->Args({4})
    ->Args({64})
    ->Args({1024})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// The fault-domain regime (DESIGN.md §13): the same mixed-churn workload
/// with a deterministic slow-session population (forced past the step
/// deadline via the duration hook, so they walk the degradation ladder), a
/// sparse env-fault population (quarantined mid-session), an admission cap
/// with over-admission pressure (sheds), and the health log active. What
/// this measures is the overhead and steady-state throughput of serving
/// *around* faults — shed / quarantined / degraded counts and the
/// degraded-mode per-step latency land in BENCH_serve.json.
void BM_ServeDegraded(benchmark::State& state) {
  const int concurrent = static_cast<int>(state.range(0));
  const int base_steps = StepsPerSession();
  const uint64_t total_sessions =
      static_cast<uint64_t>(concurrent) + static_cast<uint64_t>(concurrent) / 2;
  constexpr int64_t kDeadlineNanos = 2 * 1000 * 1000;  // 2ms

  double measured_seconds = 0.0;
  int64_t total_steps = 0;
  uint64_t total_finished = 0;
  std::vector<double> tick_seconds;

  ServeOptions options;
  options.max_sessions = concurrent;
  options.step_deadline_nanos = kDeadlineNanos;
  // Deterministic fault populations, keyed by session identity so they
  // land identically at any thread count: every 8th session overruns the
  // deadline on each step (and walks the full ladder to retirement);
  // every 16th fails its 3rd env step and is quarantined.
  options.fault_injection.step_duration_nanos =
      [](uint64_t session_id, int /*step_index*/) -> int64_t {
    return session_id % 8 == 0 ? 2 * kDeadlineNanos : kDeadlineNanos / 4;
  };
  options.fault_injection.env_step = [](uint64_t session_id,
                                        int step_index) -> Status {
    if (session_id % 16 == 5 && step_index == 3) {
      return Status::Internal("injected env fault");
    }
    return Status::OK();
  };
  SessionManager manager(SharedSnapshot(), options);
  for (auto _ : state) {
    uint64_t offered = 0;
    auto offer = [&]() {
      // Over-admit by one past the cap each wave to exercise the shed
      // path under pressure.
      manager.Admit(SessionAt(offered, base_steps)).ok();
      ++offered;
    };
    for (int i = 0; i < concurrent + 1; ++i) offer();

    double iteration_seconds = 0.0;
    while (manager.active_sessions() > 0) {
      const auto start = std::chrono::steady_clock::now();
      total_steps += manager.Tick();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      iteration_seconds += elapsed.count();
      tick_seconds.push_back(elapsed.count());
      const auto finished = manager.TakeCompleted();
      total_finished += finished.size();
      for (size_t f = 0; f < finished.size() && offered < total_sessions;
           ++f) {
        offer();
      }
    }
    state.SetIterationTime(iteration_seconds);
    measured_seconds += iteration_seconds;
  }

  const ServeStats& stats = manager.stats();
  state.counters["concurrent_sessions"] = static_cast<double>(concurrent);
  state.counters["shed"] = static_cast<double>(stats.shed);
  state.counters["quarantined"] = static_cast<double>(stats.quarantined);
  state.counters["deadline_retired"] =
      static_cast<double>(stats.deadline_retired);
  state.counters["degraded_steps"] = static_cast<double>(stats.degraded_steps);
  state.counters["degrade_transitions"] =
      static_cast<double>(stats.degrade_transitions);
  state.SetItemsProcessed(total_steps);
  state.counters["steps_per_sec"] =
      measured_seconds > 0.0
          ? static_cast<double>(total_steps) / measured_seconds
          : 0.0;
  state.counters["sessions_per_sec"] =
      measured_seconds > 0.0
          ? static_cast<double>(total_finished) / measured_seconds
          : 0.0;
  bench::AddLatencyPercentiles(state, tick_seconds, "degraded_step_latency");
}
BENCHMARK(BM_ServeDegraded)
    ->ArgNames({"sessions"})
    ->Args({64})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// The durability regime (DESIGN.md §15): the same mixed-churn workload
/// with the write-ahead session journal on — every admission and every
/// tick's group commit is an unflushed append, with the shared fdatasync
/// paid at the delivery barrier (TakeCompleted). journaled=0 runs the
/// identical workload without a journal, purely for its own latency and
/// throughput numbers. The journaled=1 run measures overhead *paired*:
/// it drains an identical unjournaled twin manager interleaved with its
/// own iterations, in the same run under the same machine conditions,
/// and reports journal_overhead_pct (journaled p50 tick latency over the
/// twin's) and journal_slowdown (twin steps/sec over journaled
/// steps/sec) into BENCH_serve.json. Comparing against a separately-run
/// baseline benchmark would couple the metric to minutes-apart machine
/// drift, which on a shared VM dwarfs the journaling cost itself.
void BM_ServeJournaled(benchmark::State& state) {
  const int concurrent = static_cast<int>(state.range(0));
  const bool journaled = state.range(1) != 0;
  const int base_steps = StepsPerSession();
  const uint64_t total_sessions =
      static_cast<uint64_t>(concurrent) + static_cast<uint64_t>(concurrent) / 2;

  const std::string journal_path = "BENCH_serve_journal.jnl";
  auto clean_journal = [&journal_path]() {
    std::remove(journal_path.c_str());
    std::remove((journal_path + ".prev").c_str());
    for (int64_t seq = 0; seq < 64; ++seq) {
      std::remove(JournalSidecarPath(journal_path, seq).c_str());
    }
  };
  if (journaled) clean_journal();

  ServeOptions options;
  if (journaled) options.journal_path = journal_path;
  SessionManager manager(SharedSnapshot(), options);
  std::unique_ptr<SessionManager> twin;
  if (journaled) {
    twin = std::make_unique<SessionManager>(SharedSnapshot(), ServeOptions{});
  }

  // One churn drain: admit `concurrent`, tick to empty, refill retired
  // sessions up to 50% churn. Appends this drain's per-tick latencies to
  // `ticks` and returns {timed seconds, steps executed}.
  auto drain = [&](SessionManager& m, std::vector<double>& ticks) {
    uint64_t admitted = 0;
    for (; admitted < static_cast<uint64_t>(concurrent); ++admitted) {
      m.Admit(SessionAt(admitted, base_steps)).value();
    }
    double seconds = 0.0;
    int64_t steps = 0;
    uint64_t finished_count = 0;
    while (m.active_sessions() > 0) {
      const auto start = std::chrono::steady_clock::now();
      steps += m.Tick();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      seconds += elapsed.count();
      ticks.push_back(elapsed.count());
      const auto finished = m.TakeCompleted();
      finished_count += finished.size();
      for (size_t f = 0; f < finished.size() && admitted < total_sessions;
           ++f, ++admitted) {
        m.Admit(SessionAt(admitted, base_steps)).value();
      }
    }
    return std::tuple<double, int64_t, uint64_t>(seconds, steps,
                                                 finished_count);
  };

  double measured_seconds = 0.0;
  int64_t total_steps = 0;
  uint64_t total_finished = 0;
  std::vector<double> tick_seconds;
  double twin_seconds = 0.0;
  int64_t twin_steps = 0;
  std::vector<double> twin_ticks;
  for (auto _ : state) {
    if (twin) {
      const auto [seconds, steps, finished] = drain(*twin, twin_ticks);
      twin_seconds += seconds;
      twin_steps += steps;
      (void)finished;
    }
    const auto [seconds, steps, finished] = drain(manager, tick_seconds);
    state.SetIterationTime(seconds);
    measured_seconds += seconds;
    total_steps += steps;
    total_finished += finished;
  }

  state.counters["concurrent_sessions"] = static_cast<double>(concurrent);
  state.SetItemsProcessed(total_steps);
  const double steps_per_sec =
      measured_seconds > 0.0
          ? static_cast<double>(total_steps) / measured_seconds
          : 0.0;
  state.counters["steps_per_sec"] = steps_per_sec;
  state.counters["sessions_per_sec"] =
      measured_seconds > 0.0
          ? static_cast<double>(total_finished) / measured_seconds
          : 0.0;
  bench::AddLatencyPercentiles(state, tick_seconds, "step_latency");

  if (journaled) {
    const ServeStats& stats = manager.stats();
    state.counters["journal_appends"] =
        static_cast<double>(stats.journal_appends);
    state.counters["journal_syncs"] = static_cast<double>(stats.journal_syncs);
    state.counters["journal_bytes"] = static_cast<double>(stats.journal_bytes);
    state.counters["journal_compactions"] =
        static_cast<double>(stats.journal_compactions);
    const double p50 = bench::Percentile(tick_seconds, 50.0);
    const double base_p50 = bench::Percentile(twin_ticks, 50.0);
    if (base_p50 > 0.0) {
      state.counters["journal_overhead_pct"] = (p50 / base_p50 - 1.0) * 100.0;
    }
    const double twin_steps_per_sec =
        twin_seconds > 0.0 ? static_cast<double>(twin_steps) / twin_seconds
                           : 0.0;
    if (steps_per_sec > 0.0 && twin_steps_per_sec > 0.0) {
      state.counters["journal_slowdown"] = twin_steps_per_sec / steps_per_sec;
    }
    clean_journal();
  }
}
BENCHMARK(BM_ServeJournaled)
    ->ArgNames({"sessions", "journaled"})
    ->Args({64, 0})
    ->Args({64, 1})
    // The group-commit payoff case: one fsync covers 16x the sessions, so
    // the per-step overhead amortizes toward the encode cost alone.
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Diversity-only reward: the one signal whose cost grows with session
/// history, which is exactly what the long-session bench isolates.
class DiversityOnlyReward final : public RewardSignal {
 public:
  double Compute(const RewardContext& context) override {
    return DiversityReward(context);
  }
};

int LongSessionSteps() {
  if (const char* env = std::getenv("ATENA_SERVE_LONG_STEPS")) {
    const int steps = std::atoi(env);
    if (steps > 0) return steps;
  }
  return 10000;
}

/// Few sessions, one very long episode each, with a diversity-scoring
/// reward attached, so per-step cost grows with the min-distance scan over
/// the lengthening display history (DESIGN.md §14): per-step latency climbs
/// as the session ages. The p50/p99_late_over_early counters compare the
/// tick latency of the second half of each session against the first half
/// (~1.0 means flat).
void BM_ServeLongSessions(benchmark::State& state) {
  const int steps = LongSessionSteps();
  constexpr int kSessions = 2;

  SnapshotOptions snapshot_options;
  snapshot_options.env.episode_length = steps;
  snapshot_options.env.num_term_bins = 8;
  snapshot_options.env.stats_row_cap = 256;
  const auto snapshot = std::make_shared<const PolicySnapshot>(
      MakeDataset("flights4").value(), snapshot_options);

  ServeOptions options;
  options.reward_factory = [] {
    return std::make_shared<DiversityOnlyReward>();
  };
  SessionManager manager(snapshot, options);

  double measured_seconds = 0.0;
  int64_t total_steps = 0;
  std::vector<double> tick_seconds, early_ticks, late_ticks;
  for (auto _ : state) {
    for (uint64_t i = 0; i < kSessions; ++i) {
      // Uniform budgets (no stagger): every live session has the same
      // history length, so tick index == history length and the
      // early/late split below is meaningful.
      SessionConfig config;
      config.seed = kSeedBase + i;
      config.max_steps = steps;
      // Sampled acting, not greedy: a greedy demo policy settles into a
      // display cycle, the min distance hits zero, and the scalar scan
      // early-breaks in one block — no history-length signal at all.
      // Sampling keeps the history duplicate-heavy but varied, the
      // distribution the diversity scan actually faces.
      config.greedy = false;
      manager.Admit(config).value();
    }

    double iteration_seconds = 0.0;
    int tick = 0;
    while (manager.active_sessions() > 0) {
      const auto start = std::chrono::steady_clock::now();
      total_steps += manager.Tick();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      iteration_seconds += elapsed.count();
      tick_seconds.push_back(elapsed.count());
      (tick < steps / 2 ? early_ticks : late_ticks).push_back(elapsed.count());
      ++tick;
      manager.TakeCompleted();
    }
    state.SetIterationTime(iteration_seconds);
    measured_seconds += iteration_seconds;
  }

  state.counters["session_steps"] = static_cast<double>(steps);
  state.SetItemsProcessed(total_steps);
  const double steps_per_sec =
      measured_seconds > 0.0
          ? static_cast<double>(total_steps) / measured_seconds
          : 0.0;
  state.counters["steps_per_sec"] = steps_per_sec;
  bench::AddLatencyPercentiles(state, tick_seconds, "step_latency");
  if (!early_ticks.empty() && !late_ticks.empty()) {
    // Second-half vs first-half tick latency growth. The median isolates
    // the diversity scan (the typical tick's only history-dependent
    // cost), which grows ~linearly with history. The p99 tail is
    // dominated by expensive display recomputes, which deepen with
    // session length independently of the scan.
    const double early_p50 = bench::Percentile(early_ticks, 50.0);
    if (early_p50 > 0.0) {
      state.counters["p50_late_over_early"] =
          bench::Percentile(late_ticks, 50.0) / early_p50;
    }
    const double early_p99 = bench::Percentile(early_ticks, 99.0);
    if (early_p99 > 0.0) {
      state.counters["p99_late_over_early"] =
          bench::Percentile(late_ticks, 99.0) / early_p99;
    }
  }
}
BENCHMARK(BM_ServeLongSessions)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace atena

int main(int argc, char** argv) {
  const std::string json_path = atena::bench::TakeJsonPath(&argc, argv);
  const std::vector<std::string> args(argv, argv + argc);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (const char* env = std::getenv("ATENA_SERVE_SESSIONS")) {
    const long scale = std::atol(env);
    if (scale > 0) {
      benchmark::RegisterBenchmark("BM_ServeSessions",
                                   atena::BM_ServeSessions)
          ->ArgNames({"sessions"})
          ->Args({scale})
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
  atena::bench::JsonFileReporter reporter(json_path, args);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
