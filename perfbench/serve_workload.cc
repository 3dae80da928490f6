// Workload `serve`: the serving product path.
//
// Set-up deploys a policy the way an operator would: MakeDataset →
// MakeStandardReward → ParallelPpoTrainer → SaveParameters →
// LoadPolicySnapshot. The timed phase then runs serving rounds. A round is
// a fresh SessionManager (so the display cache starts cold, as on a fresh
// deployment) driven as a closed loop: every live session advances one
// step per Tick, and every delivered session is replaced at once until the
// round's session budget is admitted. Rounds repeat until the time is up;
// each serves the same sessions, so every round's traces must match.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>

#include "data/registry.h"
#include "decorators.h"
#include "eval/gold.h"
#include "nn/serialization.h"
#include "notebook/render.h"
#include "reward/compound.h"
#include "rl/parallel_trainer.h"
#include "serve/session_manager.h"
#include "serve/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

using atena::SessionManager;

constexpr uint64_t kPopulationSeed = 4242;
/// Seeds of the single-step sessions that warm each round's manager.
constexpr uint64_t kWarmupSeed = 900000;
/// Set-up repetitions whose median is setup_s.
constexpr int kSetupRepeats = 3;

/// The size of the serving workload.
struct Shape {
  int concurrent = 64;      // live sessions
  int sessions = 192;       // sessions admitted per round
  int steps = 24;           // environment steps per session
  int episode_length = 12;  // serving episode length
  int sample = 8;           // sessions checked against the serial reference
  int train_steps = 12000;  // snapshot training budget (trainer default)
};

Shape ShapeFor(bool smoke) {
  Shape shape;
  if (smoke) {
    shape.concurrent = 8;
    shape.sessions = 16;
    shape.sample = 1;
    shape.train_steps = 384;
  }
  return shape;
}

/// A deployed policy: the snapshot every session pins and the trained
/// coherency classifier the per-session rewards share.
struct Deployment {
  std::shared_ptr<const atena::PolicySnapshot> snapshot;
  std::shared_ptr<atena::CompoundReward> reward;
  uint32_t weights_crc = 0;
  std::vector<std::vector<atena::ViewSignature>> gold;
};

atena::Result<Deployment> Deploy(const Shape& shape, const std::string& dir) {
  atena::Dataset dataset;
  {
    ScopedSpan span(Layer::kDataMake);
    ATENA_ASSIGN_OR_RETURN(dataset, atena::MakeDataset("cyber1"));
  }

  // Train the snapshot the way RunAtena wires its trainer.
  const atena::EnvConfig env_config;
  constexpr int kActors = 4;
  std::vector<std::unique_ptr<atena::EdaEnvironment>> envs;
  for (int e = 0; e < kActors; ++e) {
    atena::EnvConfig config = env_config;
    config.seed = env_config.seed + static_cast<uint64_t>(e);
    envs.push_back(std::make_unique<atena::EdaEnvironment>(dataset, config));
  }
  Deployment deployment;
  {
    ScopedSpan span(Layer::kCoherencyBuild);
    ATENA_ASSIGN_OR_RETURN(
        deployment.reward,
        atena::MakeStandardReward(envs[0].get(),
                                  atena::CompoundReward::Options()));
  }
  std::vector<std::unique_ptr<atena::CompoundReward>> clones;
  std::vector<atena::EdaEnvironment*> env_ptrs{envs[0].get()};
  envs[0]->SetRewardSignal(deployment.reward.get());
  for (int e = 1; e < kActors; ++e) {
    clones.push_back(std::make_unique<atena::CompoundReward>(
        deployment.reward->coherency(), deployment.reward->options()));
    envs[static_cast<size_t>(e)]->SetRewardSignal(clones.back().get());
    env_ptrs.push_back(envs[static_cast<size_t>(e)].get());
  }
  atena::SnapshotOptions snapshot_options;
  snapshot_options.env = env_config;
  snapshot_options.env.episode_length = shape.episode_length;
  atena::TwofoldPolicy policy(envs[0]->observation_dim(),
                              envs[0]->action_space(),
                              snapshot_options.policy);
  atena::TrainerOptions trainer_options;
  trainer_options.total_steps = shape.train_steps;
  trainer_options.num_threads = kTrainerThreads;
  atena::ParallelPpoTrainer trainer(env_ptrs, &policy, trainer_options);
  atena::TrainingResult training;
  {
    ScopedSpan span(Layer::kTrainRun);
    training = trainer.Train();
  }
  if (training.interrupted || !training.guard_status.ok()) {
    return atena::Status(atena::StatusCode::kInternal,
                         "snapshot training did not finish");
  }
  deployment.weights_crc = WeightsCrc(policy.Parameters());

  const std::string path = dir + "/policy.nn";
  ATENA_RETURN_IF_ERROR(atena::SaveParameters(policy.parameter_store(), path));
  ATENA_ASSIGN_OR_RETURN(
      deployment.snapshot,
      atena::LoadPolicySnapshot(dataset, snapshot_options, path));

  ATENA_ASSIGN_OR_RETURN(auto gold, atena::GoldNotebooks(dataset, env_config));
  for (const auto& notebook : gold) {
    deployment.gold.push_back(atena::NotebookSignatures(notebook));
  }
  return deployment;
}

/// Everything one serving round measured and produced.
struct Round {
  bool traced = false;
  int64_t steps = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> session_s;  // Admit → delivery, per session
  std::vector<double> tick_ms;    // per stepped session
  /// CRC over (population index, trace) in delivery order.
  uint32_t crc = 0;
  /// Total reward per population index (summed in index order, so the
  /// mean does not depend on the arrival order).
  std::vector<double> rewards;
  int64_t admitted = 0;
  int64_t delivered = 0;
  int64_t failed = 0;
  bool queries_ok = true;
  /// This round's share of the manager's counters.
  atena::ServeStats stats;
  atena::DisplayCacheStats cache;
  /// Outcomes of the first Shape::sample sessions, with their configs.
  std::vector<std::pair<atena::SessionConfig, atena::SessionTrace>> sample;
};

/// Session `index` of the fixed session population. The population does
/// not depend on the workload seed, so every run serves the same sessions
/// and the quality metrics repeat exactly; the seed decides the order in
/// which they arrive (AdmissionOrder).
atena::SessionConfig SessionAt(const Shape& shape, int index) {
  atena::SessionConfig config;
  config.seed = kPopulationSeed + static_cast<uint64_t>(index);
  config.max_steps = shape.steps;
  config.greedy = false;
  return config;
}

/// A seed-determined permutation of the population (Fisher-Yates).
std::vector<int> AdmissionOrder(uint64_t seed, int sessions) {
  std::vector<int> order(static_cast<size_t>(sessions));
  for (int i = 0; i < sessions; ++i) order[static_cast<size_t>(i)] = i;
  for (int i = sessions - 1; i > 0; --i) {
    const uint64_t j = MixSeed(seed, static_cast<uint64_t>(i)) %
                       static_cast<uint64_t>(i + 1);
    std::swap(order[static_cast<size_t>(i)], order[j]);
  }
  return order;
}

atena::ServeOptions ServeOptionsFor(const Deployment& deployment,
                                    const Shape& shape,
                                    const std::string& dir) {
  atena::ServeOptions serve_options;
  auto coherency = deployment.reward->coherency();
  auto reward_options = deployment.reward->options();
  // Sessions admitted while a tracer is active get the traced decorator.
  serve_options.reward_factory =
      [coherency, reward_options]() -> std::shared_ptr<atena::RewardSignal> {
    auto reward =
        std::make_shared<atena::CompoundReward>(coherency, reward_options);
    if (Tracer::Active() == nullptr) return reward;
    return std::make_shared<TracedReward>(std::move(reward));
  };
  serve_options.journal_path = dir + "/sessions.journal";
  serve_options.notebook_store = std::make_shared<atena::NotebookStore>();
  return serve_options;
}

/// `after - before` for the counters a round reports.
atena::ServeStats StatsDelta(const atena::ServeStats& after,
                             const atena::ServeStats& before) {
  atena::ServeStats d;
  d.quarantined = after.quarantined - before.quarantined;
  d.shed = after.shed - before.shed;
  d.deadline_retired = after.deadline_retired - before.deadline_retired;
  d.notebooks_registered =
      after.notebooks_registered - before.notebooks_registered;
  d.journal_appends = after.journal_appends - before.journal_appends;
  d.journal_bytes = after.journal_bytes - before.journal_bytes;
  d.journal_syncs = after.journal_syncs - before.journal_syncs;
  d.journal_failures = after.journal_failures - before.journal_failures;
  d.journal_compactions =
      after.journal_compactions - before.journal_compactions;
  return d;
}

/// One round on a fresh SessionManager. Before the timed section the
/// manager serves one single-step session per slot, untraced, so its
/// environment pool and journal are warm as on a running server (a fresh
/// manager builds one environment per admission, milliseconds each), and
/// then its display cache is cleared: every timed round starts from a cold
/// cache and serves the same population.
Round ServeRound(const Deployment& deployment, const Shape& shape,
                 const std::vector<int>& order, bool traced,
                 const std::string& dir) {
  Round round;
  round.traced = traced;
  round.rewards.assign(static_cast<size_t>(shape.sessions), 0.0);
  std::filesystem::create_directories(dir);
  SessionManager manager(deployment.snapshot,
                         ServeOptionsFor(deployment, shape, dir));
  Tracer* tracer = Tracer::Active();
  Tracer::Activate(nullptr);
  for (int i = 0; i < shape.concurrent; ++i) {
    atena::SessionConfig warm;
    warm.seed = kWarmupSeed + static_cast<uint64_t>(i);
    warm.max_steps = 1;
    if (!manager.Admit(warm).ok()) ++round.failed;
  }
  manager.Drain();
  manager.TakeCompleted();
  Tracer::Activate(tracer);
  atena::DisplayCache& cache = *manager.display_cache();
  cache.Clear();
  const atena::ServeStats stats_before = manager.stats();
  const atena::DisplayCacheStats cache_before = cache.Snapshot().totals;

  // Session id → (population index, admission time).
  std::unordered_map<uint64_t, std::pair<int, int64_t>> admitted;
  int next_index = 0;
  auto admit = [&]() {
    const int index = order[static_cast<size_t>(next_index++)];
    ScopedSpan span(Layer::kServeAdmit);
    const int64_t start = NowNanos();
    auto id = manager.Admit(SessionAt(shape, index));
    ++round.admitted;
    if (id.ok()) {
      admitted[id.value()] = {index, start};
    } else {
      ++round.failed;
    }
  };

  ScopedSpan repeat(Layer::kRepeat);
  const double cpu_before = ProcessCpuSeconds();
  const int64_t start = NowNanos();
  // Store entries seen so far, and each session's latest notebook.
  size_t store_seen = 0;
  std::unordered_map<uint64_t, uint64_t> latest_notebook;
  while (next_index < shape.concurrent) admit();
  while (manager.active_sessions() > 0) {
    {
      ScopedSpan span(Layer::kServeTick);
      if (tracer != nullptr) tracer->SetAmbient(span.id());
      const int64_t tick_start = NowNanos();
      const int stepped = manager.Tick();
      const double tick_ms = Seconds(NowNanos() - tick_start) * 1e3;
      round.steps += stepped;
      round.tick_ms.insert(round.tick_ms.end(), static_cast<size_t>(stepped),
                           tick_ms);
      if (tracer != nullptr) tracer->SetAmbient(0);
    }
    std::vector<atena::SessionOutcome> outcomes;
    {
      ScopedSpan span(Layer::kServeDeliver);
      outcomes = manager.TakeCompleted();
    }
    const int64_t delivered_at = NowNanos();
    const auto& store = manager.notebook_store();
    for (; store_seen < store->size(); ++store_seen) {
      latest_notebook[store->entry(store_seen).session_id] = store_seen;
    }
    for (const atena::SessionOutcome& outcome : outcomes) {
      const auto [index, admitted_at] = admitted.at(outcome.trace.id);
      round.session_s.push_back(Seconds(delivered_at - admitted_at));
      round.crc = TraceCrc(Int64Crc(round.crc, index), outcome.trace);
      round.rewards[static_cast<size_t>(index)] = outcome.trace.total_reward;
      ++round.delivered;
      if (outcome.reason != atena::RetireReason::kCompleted) ++round.failed;
      if (index < shape.sample) {
        round.sample.emplace_back(SessionAt(shape, index), outcome.trace);
      }
      // NotebookRAG-style retrieval for the delivered notebook: its own
      // sequence is in the store, so the nearest match is at distance 0.
      const auto found = latest_notebook.find(outcome.trace.id);
      if (found == latest_notebook.end()) {
        round.queries_ok = false;
      } else {
        const auto sequence = store->sequence(found->second);
        ScopedSpan span(Layer::kIndexQuery);
        const auto matches = manager.QuerySimilarNotebooks(sequence, 5);
        if (matches.empty() || matches.front().distance != 0.0) {
          round.queries_ok = false;
        }
      }
      if (next_index < shape.sessions) admit();
    }
  }
  round.wall_s = Seconds(NowNanos() - start);
  round.cpu_s = ProcessCpuSeconds() - cpu_before;
  repeat.Close();

  round.stats = StatsDelta(manager.stats(), stats_before);
  round.failed += round.stats.journal_failures;
  const atena::DisplayCacheStats cache_after = cache.Snapshot().totals;
  round.cache = cache_after;
  round.cache.hits -= cache_before.hits;
  round.cache.misses -= cache_before.misses;
  round.cache.evictions -= cache_before.evictions;
  return round;
}

}  // namespace

RunResult RunServe(const RunOptions& options) {
  RunResult result;
  const Shape shape = ShapeFor(options.smoke);
  Tracer tracer;

  // The run is kSetupRepeats parts, each a set-up followed by serving
  // rounds for its share of the time, so that the set-ups' median follows
  // the host over the whole run. Every set-up must train identical
  // weights; the rounds serve the first one's deployment. A traced run
  // alternates untraced and traced rounds; every part serves at least one
  // round, so it has both.
  std::vector<double> setup_seconds;
  Deployment deployment;
  const std::vector<int> order = AdmissionOrder(options.seed, shape.sessions);
  const std::string dir = options.scratch + "/round";
  std::vector<Round> rounds;
  double peak_rss_mb = 0.0;
  double serving_s = 0.0;
  for (int part = 0; part < kSetupRepeats; ++part) {
    Tracer::Activate(options.trace ? &tracer : nullptr);
    const int64_t setup_start = NowNanos();
    auto deployed = Deploy(shape, options.scratch);
    setup_seconds.push_back(Seconds(NowNanos() - setup_start));
    Tracer::Activate(nullptr);
    if (!deployed.ok()) {
      result.Fail("deployment: " + deployed.status().message());
      return result;
    }
    if (part == 0) {
      deployment = std::move(deployed).value();
    } else if (deployed.value().weights_crc != deployment.weights_crc) {
      result.Fail("snapshot training is not deterministic");
    }

    const double part_end = options.seconds * (part + 1) / kSetupRepeats;
    do {
      const bool traced = options.trace && rounds.size() % 2 == 1;
      Tracer::Activate(traced ? &tracer : nullptr);
      const int64_t round_start = NowNanos();
      rounds.push_back(ServeRound(deployment, shape, order, traced, dir));
      serving_s += Seconds(NowNanos() - round_start);
      Tracer::Activate(nullptr);
      std::filesystem::remove_all(dir);
      // Peak RSS after set-up and the first round: later rounds serve the
      // same sessions and only add allocator fragmentation that depends on
      // how many rounds fit in the time.
      if (rounds.size() == 1) peak_rss_mb = PeakRssMb();
    } while (serving_s < part_end);
  }
  for (const Round& round : rounds) {
    result.attempted += round.admitted;
    result.failed += round.failed;
  }

  // Correctness: every round — traced or not — serves identical traces,
  // nothing failed, retrieval found each notebook, and a sample of
  // sessions equals the single-session serial reference.
  const Round& first = rounds.front();
  for (const Round& round : rounds) {
    if (round.crc != first.crc || round.rewards != first.rewards) {
      result.Fail(round.traced ? "traced round traces differ"
                               : "round traces differ across repeats");
    }
    if (!round.queries_ok) result.Fail("notebook retrieval missed a session");
    if (round.delivered != shape.sessions) {
      result.Fail("a round did not deliver every session");
    }
  }
  if (result.failed > 0) result.Fail("sessions failed or were refused");

  Quality quality;
  atena::EdaEnvironment replay_env(deployment.snapshot->dataset(),
                                   deployment.snapshot->options().env);
  for (const auto& [config, trace] : first.sample) {
    atena::CompoundReward reward(deployment.reward->coherency(),
                                 deployment.reward->options());
    const atena::SessionTrace reference =
        atena::ServeSingleSessionSerial(*deployment.snapshot, config, &reward);
    if (TraceCrc(0, reference) != TraceCrc(0, trace)) {
      result.Fail("served session differs from ServeSingleSessionSerial");
    }
    // The delivered notebook: the session's first episode, replayed,
    // rendered and scored against the gold notebooks.
    std::vector<atena::EdaOperation> ops;
    for (int s = 0; s < shape.episode_length &&
                    s < static_cast<int>(trace.steps.size());
         ++s) {
      ops.push_back(trace.steps[static_cast<size_t>(s)].op);
    }
    const atena::EdaNotebook notebook =
        atena::ReplayOperations(&replay_env, ops, "ATENA-serve");
    if (!atena::RenderMarkdown(notebook).ok()) result.Fail("render failed");
    const Quality q =
        ScoreNotebook(atena::NotebookSignatures(notebook), deployment.gold);
    quality.eda_sim += q.eda_sim / static_cast<double>(first.sample.size());
    quality.precision +=
        q.precision / static_cast<double>(first.sample.size());
  }
  if (first.sample.size() != static_cast<size_t>(shape.sample)) {
    result.Fail("sample sessions missing");
  }
  double mean_reward = 0.0;
  for (double reward : first.rewards) mean_reward += reward;
  mean_reward /= static_cast<double>(shape.sessions);
  std::fprintf(stderr,
               "serve: %zu rounds of %d sessions; trace crc %08x, weights crc "
               "%08x, mean reward %.6f, eda_sim %.6f, precision %.6f\n",
               rounds.size(), shape.sessions,
               first.crc, deployment.weights_crc, mean_reward, quality.eda_sim,
               quality.precision);

  std::vector<double> session_s, plain_rates, traced_rates;
  double cpu_s = 0.0, plain_wall = 0.0;
  std::fprintf(stderr, "round steps/s:");
  for (const Round& round : rounds) {
    const double rate = static_cast<double>(round.steps) / round.wall_s;
    std::fprintf(stderr, " %.0f%s", rate, round.traced ? "t" : "");
    (round.traced ? traced_rates : plain_rates).push_back(rate);
    if (round.traced) continue;
    session_s.insert(session_s.end(), round.session_s.begin(),
                     round.session_s.end());
    cpu_s += round.cpu_s;
    plain_wall += round.wall_s;
  }
  std::fprintf(stderr, "; set-up s:");
  for (double s : setup_seconds) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_seconds);
    e2e.steps_per_s = Median(plain_rates);
    e2e.time_to_notebook_s = Median(session_s);
    e2e.mean_reward = mean_reward;
    e2e.eda_sim = quality.eda_sim;
    e2e.precision = quality.precision;
    e2e.peak_rss_mb = peak_rss_mb;
    AddEndToEnd(e2e, &result);
    return result;
  }

  DumpSpans(tracer, options);
  const SpanTable spans(tracer.Collect());
  std::vector<double> tick_ms, traced_session_s;
  double n = 0.0;
  PerLayer layers;
  for (const Round& round : rounds) {
    if (!round.traced) continue;
    n += 1.0;
    tick_ms.insert(tick_ms.end(), round.tick_ms.begin(), round.tick_ms.end());
    traced_session_s.insert(traced_session_s.end(), round.session_s.begin(),
                            round.session_s.end());
    const atena::ServeStats& stats = round.stats;
    layers.serve_journal_appends += static_cast<double>(stats.journal_appends);
    layers.serve_journal_bytes += static_cast<double>(stats.journal_bytes);
    layers.serve_journal_syncs += static_cast<double>(stats.journal_syncs);
    layers.serve_journal_compactions +=
        static_cast<double>(stats.journal_compactions);
    layers.serve_quarantined += static_cast<double>(stats.quarantined);
    layers.serve_shed += static_cast<double>(stats.shed);
    layers.serve_deadline_retired +=
        static_cast<double>(stats.deadline_retired);
    layers.index_notebooks_registered +=
        static_cast<double>(stats.notebooks_registered);
    layers.eda_cache_hits += static_cast<double>(round.cache.hits);
    layers.eda_cache_misses += static_cast<double>(round.cache.misses);
    layers.eda_cache_evictions += static_cast<double>(round.cache.evictions);
    layers.eda_cache_resident_mb +=
        static_cast<double>(round.cache.resident_bytes) / (1024.0 * 1024.0);
  }
  for (double* per_round :
       {&layers.serve_journal_appends, &layers.serve_journal_bytes,
        &layers.serve_journal_syncs, &layers.serve_journal_compactions,
        &layers.serve_quarantined, &layers.serve_shed,
        &layers.serve_deadline_retired, &layers.index_notebooks_registered,
        &layers.eda_cache_hits, &layers.eda_cache_misses,
        &layers.eda_cache_evictions, &layers.eda_cache_resident_mb}) {
    *per_round /= n;
  }
  const double lookups = layers.eda_cache_hits + layers.eda_cache_misses;
  layers.eda_cache_hit_rate =
      lookups > 0.0 ? layers.eda_cache_hits / lookups : 0.0;
  layers.data_make_s = Median(spans.Durations(Layer::kDataMake));
  layers.coherency_build_s = Median(spans.Durations(Layer::kCoherencyBuild));
  layers.rl_train_s = Median(spans.Durations(Layer::kTrainRun));
  layers.reward_calls = static_cast<double>(spans.Count(Layer::kReward)) / n;
  layers.reward_compute_ms = spans.BusySeconds(Layer::kReward) * 1e3 / n;
  layers.reward_p50_us = Median(spans.Durations(Layer::kReward)) * 1e6;
  layers.serve_ticks = static_cast<double>(spans.Count(Layer::kServeTick)) / n;
  layers.serve_tick_ms = spans.BusySeconds(Layer::kServeTick) * 1e3 / n;
  layers.serve_tick_p50_ms = Median(tick_ms);
  layers.serve_tick_p99_ms = Quantile(tick_ms, 0.99);
  layers.serve_session_p99_ms = Quantile(traced_session_s, 0.99) * 1e3;
  layers.serve_tick_self_ms =
      spans.SelfSeconds(Layer::kServeTick, {Layer::kReward}) * 1e3 / n;
  // Mean cost per call: a few admissions and queries carry a journal
  // barrier or a long corpus scan, and the mean is what adds up to wall
  // time.
  layers.serve_admit_us = spans.BusySeconds(Layer::kServeAdmit) * 1e6 /
                          static_cast<double>(spans.Count(Layer::kServeAdmit));
  layers.serve_deliver_ms = spans.BusySeconds(Layer::kServeDeliver) * 1e3 / n;
  if (spans.Count(Layer::kIndexQuery) > 0) {
    layers.index_query_us =
        spans.BusySeconds(Layer::kIndexQuery) * 1e6 /
        static_cast<double>(spans.Count(Layer::kIndexQuery));
  }
  layers.common_cpu_util =
      cpu_s / (plain_wall * static_cast<double>(HardwareThreads()));
  const double plain_rate = Median(plain_rates);
  layers.bench_trace_overhead_pct =
      100.0 * (plain_rate - Median(traced_rates)) / plain_rate;
  // Round wall time covered by no leaf span: inside Tick, the batched act,
  // environment steps, dataframe kernels, commit and journal encoding.
  layers.bench_unattributed_pct =
      100.0 *
      spans.SelfSeconds(Layer::kRepeat,
                        {Layer::kReward, Layer::kServeAdmit,
                         Layer::kServeDeliver, Layer::kIndexQuery}) /
      spans.BusySeconds(Layer::kRepeat);
  AddPerLayer(layers, &result);
  return result;
}

}  // namespace perfbench
