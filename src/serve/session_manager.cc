#include "serve/session_manager.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <utility>

#include "common/clock.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/string_utils.h"
#include "rl/policy.h"

namespace atena {

uint64_t ActingStreamSeed(uint64_t session_seed) {
  // Any fixed non-zero salt works: SplitMix64 seeding decorrelates the
  // resulting stream from the environment's (seeded with the raw value).
  return session_seed ^ 0xA3EC4155D1E5ULL;
}

const char* RetireReasonName(RetireReason reason) {
  switch (reason) {
    case RetireReason::kCompleted:
      return "completed";
    case RetireReason::kQuarantined:
      return "quarantined";
    case RetireReason::kDeadlineExceeded:
      return "deadline_exceeded";
    case RetireReason::kHardStopped:
      return "hard_stopped";
  }
  return "unknown";
}

const char* DegradeStageName(DegradeStage stage) {
  switch (stage) {
    case DegradeStage::kNormal:
      return "normal";
    case DegradeStage::kNoDiversity:
      return "no_diversity";
    case DegradeStage::kGreedy:
      return "greedy";
  }
  return "unknown";
}

namespace {

int EffectiveMaxSteps(const SessionConfig& config, const EnvConfig& env) {
  return config.max_steps > 0 ? config.max_steps : env.episode_length;
}

ServedStep RecordStep(const StepOutcome& out, const EdaEnvironment& env) {
  return ServedStep{out.op, out.valid, out.reward,
                    DisplayVectorKey(env.current_display(),
                                     env.config().stats_row_cap)};
}

/// First non-finite element of `values`, or -1 when all are finite.
int FirstNonFinite(const std::vector<double>& values) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) return static_cast<int>(i);
  }
  return -1;
}

/// The journal snapshot's canonical flattening of ServeStats. Capture and
/// restore share the field table so they can never drift apart.
std::vector<int64_t*> StatsFields(ServeStats* stats) {
  return {&stats->admitted,
          &stats->completed,
          &stats->quarantined,
          &stats->shed,
          &stats->deadline_retired,
          &stats->hard_stopped,
          &stats->degrade_transitions,
          &stats->degraded_steps,
          &stats->degraded_greedy_steps,
          &stats->reload_successes,
          &stats->reload_failures,
          &stats->notebooks_registered};
}

std::vector<int64_t> FlattenStats(const ServeStats& stats) {
  std::vector<int64_t> out;
  for (int64_t* field : StatsFields(const_cast<ServeStats*>(&stats))) {
    out.push_back(*field);
  }
  return out;
}

void RestoreStats(const std::vector<int64_t>& values, ServeStats* stats) {
  std::vector<int64_t*> fields = StatsFields(stats);
  const size_t n = std::min(values.size(), fields.size());
  for (size_t i = 0; i < n; ++i) *fields[i] = values[i];
}

}  // namespace

SessionManager::SessionManager(std::shared_ptr<const PolicySnapshot> snapshot,
                               ServeOptions options)
    : snapshot_(std::move(snapshot)),
      options_(std::move(options)),
      health_log_(options_.health_log_path) {
  health_log_.Continue();
  // The shared cache is configured exactly like a training environment's.
  const EnvConfig& env = snapshot_->options().env;
  if (env.display_cache_enabled && env.display_cache_capacity > 0) {
    cache_ = std::make_shared<DisplayCache>(
        DisplayCache::Options{.capacity = env.display_cache_capacity,
                              .max_bytes = env.display_cache_max_bytes,
                              .shards = env.display_cache_shards});
  }
  const int threads =
      options_.num_threads > 0
          ? options_.num_threads
          : ThreadPool::DefaultThreads(std::numeric_limits<int>::max());
  pool_ = std::make_unique<ThreadPool>(threads);
}

SessionManager::~SessionManager() = default;

std::unique_ptr<EdaEnvironment> SessionManager::AcquireEnv(uint64_t seed) {
  if (!env_pool_.empty()) {
    std::unique_ptr<EdaEnvironment> env = std::move(env_pool_.back());
    env_pool_.pop_back();
    // Reseeding the term stream (plus the Reset in Admit) makes a recycled
    // environment observationally identical to a freshly constructed one;
    // the dataset-derived state (root selection, encoder layout) depends
    // only on the dataset and carries over untouched.
    env->set_rng_state(Rng(seed).state());
    return env;
  }
  EnvConfig config = snapshot_->options().env;
  config.seed = seed;
  // All sessions share the manager's cache, injected in Admit.
  config.display_cache_enabled = false;
  return std::make_unique<EdaEnvironment>(snapshot_->dataset(), config);
}

Result<uint64_t> SessionManager::Admit(const SessionConfig& config) {
  const int live = static_cast<int>(sessions_.size());
  if (options_.max_sessions > 0) {
    if (live >= options_.max_sessions) {
      ++stats_.shed;
      if (health_log_.enabled()) {
        health_log_.Append("shed", "\"seed\":" +
                                       std::to_string(config.seed) +
                                       ",\"live\":" + std::to_string(live) +
                                       ",\"detail\":\"at max_sessions\"");
      }
      return Status::ResourceExhausted(
          "admission refused: " + std::to_string(live) +
          " live sessions at max_sessions=" +
          std::to_string(options_.max_sessions));
    }
    const int watermark =
        static_cast<int>(options_.shed_watermark *
                         static_cast<double>(options_.max_sessions));
    if (options_.shed_watermark > 0.0 && options_.step_deadline_nanos > 0 &&
        overloaded_ && live >= watermark) {
      ++stats_.shed;
      if (health_log_.enabled()) {
        health_log_.Append(
            "shed", "\"seed\":" + std::to_string(config.seed) +
                        ",\"live\":" + std::to_string(live) +
                        ",\"detail\":\"overloaded past watermark\"");
      }
      return Status::ResourceExhausted(
          "load shed: " + std::to_string(live) +
          " live sessions past watermark (" + std::to_string(watermark) +
          " of max_sessions=" + std::to_string(options_.max_sessions) +
          ") while the last tick overran the step deadline");
    }
  }

  // Start the journal before taking the id: the lazy initial compaction
  // snapshots the state *without* this admission, which the admit record
  // below then adds.
  EnsureJournalStarted();
  auto session = BuildSession(config, next_id_++, snapshot_, current_gen_);
  const uint64_t id = session->id;
  sessions_.push_back(std::move(session));
  ++stats_.admitted;
  if (journal_) {
    const int64_t before = journal_->appended_bytes();
    AccountJournalAppend(
        journal_->AppendAdmit(JournalAdmit{id, config.seed, config.max_steps,
                                           config.greedy, current_gen_}),
        before);
    // No barrier here: an admission is transaction *begin*, not commit —
    // nothing externally observable depends on it yet, and prefix
    // semantics guarantee no later tick record can outlive a lost admit.
    // Admission bursts (churn refill) thus share the next barrier's
    // single flush instead of paying one fdatasync each.
  }
  return id;
}

std::unique_ptr<SessionManager::Session> SessionManager::BuildSession(
    const SessionConfig& config, uint64_t id,
    std::shared_ptr<const PolicySnapshot> snapshot, uint32_t gen) {
  auto session = std::make_unique<Session>();
  session->id = id;
  session->config = config;
  session->effective_max_steps =
      EffectiveMaxSteps(config, snapshot->options().env);
  session->env = AcquireEnv(config.seed);
  session->env->SetDisplayCache(cache_);
  if (options_.reward_factory) {
    session->reward = options_.reward_factory();
  }
  session->env->SetRewardSignal(session->reward.get());
  session->act_rng = Rng(ActingStreamSeed(config.seed));
  session->observation = session->env->Reset();
  session->snapshot = std::move(snapshot);
  session->snapshot_gen = gen;
  session->trace.id = id;
  session->trace.seed = config.seed;
  session->trace.steps.reserve(
      static_cast<size_t>(session->effective_max_steps));
  return session;
}

void SessionManager::RegisterNotebook(const Session& session) {
  if (!options_.notebook_store) return;
  const int64_t notebook_id = options_.notebook_store->Register(
      session.id, session.config.seed, session.env->display_vectors());
  if (notebook_id < 0) return;
  ++stats_.notebooks_registered;
  LogSessionEvent("notebook_registered", session,
                  "\"notebook\":" + std::to_string(notebook_id));
}

void SessionManager::Retire(size_t index, RetireReason reason, Status status,
                            bool env_healthy) {
  Session& s = *sessions_[index];
  // A healthy environment's in-progress notebook joins the corpus (the
  // store drops sequences too short to be a notebook); a quarantined
  // environment may be mid-mutation and its history is not trusted.
  if (env_healthy) RegisterNotebook(s);
  SessionOutcome outcome;
  outcome.reason = reason;
  outcome.status = std::move(status);
  outcome.final_stage = s.stage;
  outcome.degraded_steps = s.degraded_steps;
  outcome.trace = std::move(s.trace);
  completed_.push_back(std::move(outcome));
  switch (reason) {
    case RetireReason::kCompleted:
      ++stats_.completed;
      break;
    case RetireReason::kQuarantined:
      ++stats_.quarantined;
      break;
    case RetireReason::kDeadlineExceeded:
      ++stats_.deadline_retired;
      break;
    case RetireReason::kHardStopped:
      ++stats_.hard_stopped;
      break;
  }
  if (env_healthy) {
    s.env->SetRewardSignal(nullptr);
    env_pool_.push_back(std::move(s.env));
  }
  // A quarantined environment may have been interrupted mid-mutation; it
  // is discarded with the session rather than pooled.
  sessions_[index].reset();
}

void SessionManager::CommitStep(size_t index, ServedStep step,
                                StepOutcome outcome, int end,
                                DegradeStage stage_after) {
  Session& s = *sessions_[index];
  s.trace.total_reward += step.reward;
  s.trace.steps.push_back(std::move(step));
  ++s.steps_done;
  ++steps_served_;
  if (s.stage >= DegradeStage::kNoDiversity) {
    ++s.degraded_steps;
    ++stats_.degraded_steps;
    if (s.stage >= DegradeStage::kGreedy) ++stats_.degraded_greedy_steps;
  }
  // The overrunning step stays in the notebook; the *next* step runs
  // further down the ladder (or not at all).
  while (s.stage < stage_after) {
    s.stage = static_cast<DegradeStage>(static_cast<int>(s.stage) + 1);
    ++stats_.degrade_transitions;
    if (s.stage == DegradeStage::kNoDiversity && s.reward) {
      s.reward->SetDegradedMode(true);
    }
    LogSessionEvent("degrade", s, std::string("\"stage\":\"") +
                                      DegradeStageName(s.stage) + "\"");
  }
  switch (end) {
    case JournalTickEntry::kCompleted:
      Retire(index, RetireReason::kCompleted, Status::OK(),
             /*env_healthy=*/true);
      return;
    case JournalTickEntry::kDeadlineRetired:
      // Past the last stage: the session cannot be served within budget
      // even fully degraded — retire it with its partial notebook.
      ++stats_.degrade_transitions;
      LogSessionEvent("deadline_retire", s,
                      std::string("\"stage\":\"") +
                          DegradeStageName(s.stage) + "\"");
      Retire(index, RetireReason::kDeadlineExceeded,
             Status::ResourceExhausted(
                 "step deadline (" +
                 std::to_string(options_.step_deadline_nanos) +
                 "ns) still exceeded at the last degradation stage"),
             /*env_healthy=*/true);
      return;
  }
  if (outcome.done) {
    // Episode boundary inside a longer session: the finished notebook
    // joins the corpus, then the next one starts. (A session completing
    // its step budget was retired above — registered there, not twice.)
    RegisterNotebook(s);
    s.observation = s.env->Reset();
  } else {
    s.observation = std::move(outcome.observation);
  }
}

void SessionManager::LogSessionEvent(const char* type, const Session& session,
                                     const std::string& extra) {
  if (!health_log_.enabled() || recovering_) return;
  std::string body = "\"session\":" + std::to_string(session.id) +
                     ",\"seed\":" + std::to_string(session.config.seed) +
                     ",\"step\":" + std::to_string(session.steps_done);
  if (!extra.empty()) {
    body += ",";
    body += extra;
  }
  health_log_.Append(type, body);
}

void SessionManager::ActGroup(const std::vector<int>& members) {
  // Each block is a run of whole tiles of the forward pass's 4-row
  // register tile: the last one is padded up to the tile width, so every
  // block (and a draining runtime's 1–3 live sessions) keeps the tiled
  // GEMM instead of falling back to per-row dot products. GEMM rows are
  // independent and a padded row carries a null Rng, so live rows' results
  // are bit-identical however the rows are cut into blocks; padded outputs
  // are dropped.
  constexpr int kTileRows = 4;
  const PolicySnapshot& snapshot =
      *sessions_[static_cast<size_t>(members.front())]->snapshot;
  const TwofoldPolicy& policy = *snapshot.policy();
  const int count = static_cast<int>(members.size());
  const int tiles = (count + kTileRows - 1) / kTileRows;
  const int blocks = std::min(pool_->num_threads(), tiles);
  if (act_blocks_.size() < static_cast<size_t>(blocks)) {
    act_blocks_.resize(static_cast<size_t>(blocks));
  }
  pool_->ParallelFor(blocks, [&](int b) {
    const int begin = kTileRows * (tiles * b / blocks);
    const int end = std::min(count, kTileRows * (tiles * (b + 1) / blocks));
    const int rows = end - begin;
    const int padded = (rows + kTileRows - 1) / kTileRows * kTileRows;
    ActBlock& block = act_blocks_[static_cast<size_t>(b)];
    block.observations.Resize(padded, snapshot.observation_dim());
    block.rngs.assign(static_cast<size_t>(padded), nullptr);
    for (int r = 0; r < rows; ++r) {
      Session& s = *sessions_[static_cast<size_t>(
          members[static_cast<size_t>(begin + r)])];
      std::copy(s.observation.begin(), s.observation.end(),
                block.observations.RowPtr(r));
      if (!s.config.greedy && s.stage < DegradeStage::kGreedy) {
        block.rngs[static_cast<size_t>(r)] = &s.act_rng;
      }
    }
    for (int r = rows; r < padded; ++r) {
      std::copy(block.observations.RowPtr(0),
                block.observations.RowPtr(0) + block.observations.cols(),
                block.observations.RowPtr(r));
    }
    std::vector<PolicyStep> steps =
        policy.ActBatch(block.observations, block.rngs, &block.workspace);
    for (int r = 0; r < rows; ++r) {
      acts_[static_cast<size_t>(members[static_cast<size_t>(begin + r)])] =
          std::move(steps[static_cast<size_t>(r)]);
    }
  });
}

void SessionManager::StepSession(int index, bool journaling) {
  StepSlot& slot = slots_[static_cast<size_t>(index)];
  Session& s = *sessions_[static_cast<size_t>(index)];
  const PolicyStep& act = acts_[static_cast<size_t>(index)];
  slot.status = Status::OK();
  slot.duration_nanos = 0;
  // Pre-step screening: a policy that produced non-finite outputs for a
  // row must not drive that session's environment at all. The session is
  // quarantined; its environment is never touched this tick.
  if (!std::isfinite(act.log_prob) || !std::isfinite(act.value)) {
    slot.status = Status::Internal(
        "non-finite policy output: log_prob=" + std::to_string(act.log_prob) +
        " value=" + std::to_string(act.value));
    return;
  }
  if (options_.fault_injection.env_step) {
    Status injected = options_.fault_injection.env_step(s.id, s.steps_done);
    if (!injected.ok()) {
      slot.status = std::move(injected);
      return;
    }
  }
  // Each step is timed against the monotonic deadline clock.
  const int64_t start = MonotonicNanos();
  Result<StepOutcome> stepped = TryApplyAction(s.env.get(), act.action);
  slot.duration_nanos = MonotonicNanos() - start;
  if (options_.fault_injection.step_duration_nanos) {
    slot.duration_nanos =
        options_.fault_injection.step_duration_nanos(s.id, s.steps_done);
  }
  if (!stepped.ok()) {
    slot.status = stepped.status();
    return;
  }
  slot.outcome = std::move(stepped).value();
  // Screen the step's products: a non-finite reward or observation
  // element is a poisoned session that must not reach the next batch.
  if (!std::isfinite(slot.outcome.reward)) {
    slot.status = Status::Internal("non-finite reward: " +
                                   std::to_string(slot.outcome.reward));
    return;
  }
  const int bad = FirstNonFinite(slot.outcome.observation);
  if (bad >= 0) {
    slot.status = Status::Internal("non-finite observation element " +
                                   std::to_string(bad));
    return;
  }

  // The per-session half of the commit. How it ends follows from the step
  // budget and the deadline alone.
  slot.step = RecordStep(slot.outcome, *s.env);
  slot.end = JournalTickEntry::kLive;
  slot.stage_after = s.stage;
  if (s.steps_done + 1 >= s.effective_max_steps) {
    slot.end = JournalTickEntry::kCompleted;
  } else if (options_.step_deadline_nanos > 0 &&
             slot.duration_nanos > options_.step_deadline_nanos) {
    if (s.stage == DegradeStage::kGreedy) {
      slot.end = JournalTickEntry::kDeadlineRetired;
    } else {
      slot.stage_after =
          static_cast<DegradeStage>(static_cast<int>(s.stage) + 1);
    }
  }
  if (journaling) {
    // Post-step stream states, delta-encoded against the pre-step base —
    // a few bytes per stream instead of four 20-digit words. The
    // episode-boundary Reset in the commit consumes no randomness, so
    // capturing before it is already exact.
    JournalTickBuilder::EncodeStep(
        s.id, slot.end, static_cast<int>(slot.stage_after),
        MakeJournalRng(env_rng_before_[static_cast<size_t>(index)],
                       s.env->rng_state()),
        MakeJournalRng(act_rng_before_[static_cast<size_t>(index)],
                       s.act_rng.state()),
        slot.step, &slot.journal_entry);
  }
}

int SessionManager::Tick() {
  const int live = static_cast<int>(sessions_.size());
  if (live == 0) return 0;
  EnsureJournalStarted();
  // The group commit (DESIGN.md §15): every session's committed step this
  // tick lands in ONE journal record — one append per tick, not per
  // session — assembled during serial commit and appended after it. The
  // fdatasync is deferred to the next durability barrier (SyncJournal),
  // so consecutive ticks share a single flush.
  const bool journaling = journal_ != nullptr;
  if (journaling) {
    tick_builder_.Clear();
    // Pre-step stream states: the delta base for this tick's entries
    // (nothing consumes session randomness between here and the step).
    env_rng_before_.resize(static_cast<size_t>(live));
    act_rng_before_.resize(static_cast<size_t>(live));
    for (int i = 0; i < live; ++i) {
      const Session& s = *sessions_[static_cast<size_t>(i)];
      env_rng_before_[static_cast<size_t>(i)] = s.env->rng_state();
      act_rng_before_[static_cast<size_t>(i)] = s.act_rng.state();
    }
  }

  // 1. Parallel act: one ParallelFor of row blocks per pinned-snapshot
  // group (a single group except in the ticks spanning a hot reload), each
  // row drawing from its session's private stream (or none when greedy —
  // by config or by degradation stage).
  acts_.resize(static_cast<size_t>(live));
  std::vector<const PolicySnapshot*> group_keys;
  std::vector<std::vector<int>> groups;
  for (int i = 0; i < live; ++i) {
    const PolicySnapshot* key = sessions_[static_cast<size_t>(i)]->snapshot.get();
    size_t g = 0;
    while (g < group_keys.size() && group_keys[g] != key) ++g;
    if (g == group_keys.size()) {
      group_keys.push_back(key);
      groups.emplace_back();
    }
    groups[g].push_back(i);
  }
  for (const std::vector<int>& members : groups) ActGroup(members);

  // 2. Parallel step plus the per-session commit work: index-addressed
  // slots; a worker touches only its session's environment plus the
  // internally synchronized cache, and failures land in the slot's Status
  // and never escape the session's fault domain.
  slots_.resize(static_cast<size_t>(live));
  pool_->ParallelFor(live, [&](int i) { StepSession(i, journaling); });

  // 3. Serial commit in admission order: quarantine, or journal the step's
  // pre-encoded entry and commit it as its slot decided.
  int executed_steps = 0;
  int64_t duration_sum = 0;
  for (int i = 0; i < live; ++i) {
    Session& s = *sessions_[static_cast<size_t>(i)];
    StepSlot& slot = slots_[static_cast<size_t>(i)];
    if (!slot.status.ok()) {
      LogSessionEvent(
          "quarantine", s,
          "\"code\":" + JsonString(StatusCodeName(slot.status.code())) +
              ",\"detail\":" + JsonString(slot.status.message()));
      if (journaling) tick_builder_.AddQuarantine(s.id);
      Retire(static_cast<size_t>(i), RetireReason::kQuarantined,
             std::move(slot.status), /*env_healthy=*/false);
      continue;
    }
    ++executed_steps;
    duration_sum += slot.duration_nanos;
    if (journaling) tick_builder_.AddEncodedStep(slot.journal_entry);
    CommitStep(static_cast<size_t>(i), std::move(slot.step),
               std::move(slot.outcome), slot.end, slot.stage_after);
  }
  sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), nullptr),
                  sessions_.end());
  overloaded_ = options_.step_deadline_nanos > 0 && executed_steps > 0 &&
                duration_sum / executed_steps > options_.step_deadline_nanos;
  if (journaling && journal_) {
    const int64_t before = journal_->appended_bytes();
    AccountJournalAppend(journal_->AppendTick(tick_builder_, overloaded_),
                         before);
    MaybeAutoCompact();
  }
  return executed_steps;
}

void SessionManager::Drain() {
  while (!sessions_.empty()) Tick();
}

int SessionManager::HardStop() {
  if (!sessions_.empty()) EnsureJournalStarted();
  std::vector<uint64_t> stopped_ids;
  stopped_ids.reserve(sessions_.size());
  int stopped = 0;
  for (size_t i = 0; i < sessions_.size(); ++i) {
    if (!sessions_[i]) continue;
    stopped_ids.push_back(sessions_[i]->id);
    LogSessionEvent("hard_stop", *sessions_[i], "");
    Retire(i, RetireReason::kHardStopped, Status::OK(), /*env_healthy=*/true);
    ++stopped;
  }
  sessions_.clear();
  if (journal_ && !stopped_ids.empty()) {
    const int64_t before = journal_->appended_bytes();
    AccountJournalAppend(journal_->AppendStop(stopped_ids), before);
    SyncJournal();
  }
  return stopped;
}

Status SessionManager::ReloadSnapshot(const std::string& path) {
  Status last;
  for (int attempt = 0; attempt <= options_.reload_retries; ++attempt) {
    if (attempt > 0) {
      const int64_t backoff = options_.reload_backoff_nanos << (attempt - 1);
      if (options_.reload_sleep) {
        options_.reload_sleep(backoff);
      } else {
        SleepForNanos(backoff);
      }
    }
    // The new snapshot is built against the serving dataset and options,
    // so LoadPolicySnapshot's architecture validation guarantees every
    // accepted file is observation/action-compatible with live sessions.
    Result<std::shared_ptr<PolicySnapshot>> loaded = LoadPolicySnapshot(
        snapshot_->dataset(), snapshot_->options(), path);
    if (loaded.ok()) {
      // Journal start must capture the pre-reload state; the reload record
      // then defines the new generation.
      EnsureJournalStarted();
      snapshot_ = std::move(loaded).value();
      // A workspace keeps one slot per layer it has run; starting afresh
      // bounds them by the networks in use since this reload.
      act_blocks_.clear();
      generation_paths_.push_back(path);
      current_gen_ = static_cast<uint32_t>(generation_paths_.size() - 1);
      ++stats_.reload_successes;
      if (health_log_.enabled()) {
        health_log_.Append("reload_ok", "\"path\":" + JsonString(path) +
                                            ",\"attempt\":" +
                                            std::to_string(attempt));
      }
      if (journal_) {
        const int64_t before = journal_->appended_bytes();
        AccountJournalAppend(
            journal_->AppendReload(JournalReload{current_gen_, path}), before);
        SyncJournal();
      }
      return Status::OK();
    }
    last = loaded.status();
    if (health_log_.enabled()) {
      health_log_.Append(
          "reload_fail",
          "\"path\":" + JsonString(path) +
              ",\"attempt\":" + std::to_string(attempt) +
              ",\"code\":" + JsonString(StatusCodeName(last.code())) +
              ",\"detail\":" + JsonString(last.message()));
    }
  }
  ++stats_.reload_failures;
  if (health_log_.enabled()) {
    health_log_.Append("reload_giveup",
                       "\"path\":" + JsonString(path) + ",\"attempts\":" +
                           std::to_string(options_.reload_retries + 1));
  }
  return last;
}

JournalMeta SessionManager::BuildJournalMeta() const {
  const EnvConfig& env = snapshot_->options().env;
  JournalMeta meta;
  meta.dataset_id = snapshot_->dataset().info.id;
  meta.observation_dim = snapshot_->observation_dim();
  meta.episode_length = env.episode_length;
  meta.num_term_bins = env.num_term_bins;
  return meta;
}

Status SessionManager::VerifyJournalMeta(const JournalMeta& meta) const {
  const JournalMeta want = BuildJournalMeta();
  if (meta.version != want.version) {
    return Status::InvalidArgument("unsupported journal version " +
                                   std::to_string(meta.version));
  }
  if (meta.dataset_id != want.dataset_id ||
      meta.observation_dim != want.observation_dim ||
      meta.episode_length != want.episode_length ||
      meta.num_term_bins != want.num_term_bins) {
    return Status::InvalidArgument(
        "journal was written under a different serving configuration: "
        "journal has dataset '" +
        meta.dataset_id + "', obs_dim " +
        std::to_string(meta.observation_dim) + ", episode_length " +
        std::to_string(meta.episode_length) + ", term_bins " +
        std::to_string(meta.num_term_bins) + "; this manager serves '" +
        want.dataset_id + "', obs_dim " +
        std::to_string(want.observation_dim) + ", episode_length " +
        std::to_string(want.episode_length) + ", term_bins " +
        std::to_string(want.num_term_bins));
  }
  return Status::OK();
}

JournalSnapshot SessionManager::CaptureJournalSnapshot(
    int64_t notebook_seq) const {
  JournalSnapshot snap;
  snap.next_id = next_id_;
  snap.steps_served = steps_served_;
  snap.overloaded = overloaded_;
  snap.stats = FlattenStats(stats_);
  snap.generation_paths = generation_paths_;
  snap.current_gen = current_gen_;
  snap.notebook_seq = notebook_seq;
  snap.sessions.reserve(sessions_.size());
  for (const std::unique_ptr<Session>& owned : sessions_) {
    if (!owned) continue;
    const Session& s = *owned;
    JournalSessionState state;
    state.id = s.id;
    state.seed = s.config.seed;
    state.max_steps = s.config.max_steps;
    state.greedy = s.config.greedy;
    state.gen = s.snapshot_gen;
    state.steps_done = s.steps_done;
    state.stage = static_cast<int>(s.stage);
    state.degraded_steps = s.degraded_steps;
    state.episode_steps = s.env->step_count();
    state.total_reward = s.trace.total_reward;
    state.env_rng = s.env->rng_state();
    state.act_rng = s.act_rng.state();
    state.trace = s.trace.steps;
    snap.sessions.push_back(std::move(state));
  }
  return snap;
}

void SessionManager::EnsureJournalStarted() {
  if (journal_started_ || recovering_ || options_.journal_path.empty()) {
    return;
  }
  // The initial compaction IS the journal start: it writes header + meta +
  // a snapshot of the current (typically empty) state. Running it lazily —
  // at the first state transition, before that transition mutates anything
  // — means constructing a manager never clobbers a journal that
  // RecoverFromJournal has not read yet.
  Status started = CompactJournal();
  (void)started;  // a failure already marked the journal broken
}

void SessionManager::MarkJournalBroken(Status status) {
  ++stats_.journal_failures;
  ATENA_LOG(kWarning) << "serving journal disabled: " << status;
  if (health_log_.enabled()) {
    health_log_.Append("journal_fail",
                       "\"detail\":" + JsonString(status.message()));
  }
  // Durability degrades, availability does not: the prefix already on disk
  // stays recoverable, and serving continues unjournaled.
  journal_.reset();
  journal_started_ = true;
}

void SessionManager::AccountJournalAppend(Status status, int64_t bytes_before) {
  if (!journal_) return;
  if (!status.ok()) {
    MarkJournalBroken(std::move(status));
    return;
  }
  ++stats_.journal_appends;
  stats_.journal_bytes += journal_->appended_bytes() - bytes_before;
}

void SessionManager::SyncJournal() {
  if (!journal_ || !journal_->dirty()) return;
  Status synced = journal_->Sync();
  if (!synced.ok()) {
    MarkJournalBroken(std::move(synced));
    return;
  }
  ++stats_.journal_syncs;
}

void SessionManager::MaybeAutoCompact() {
  if (!journal_ || options_.journal_compact_bytes <= 0) return;
  // Compact when the log since the last snapshot outweighs both the
  // configured floor and a multiple of that snapshot's own size — the
  // standard WAL amortization rule (see the ServeOptions fields).
  int64_t threshold = options_.journal_compact_bytes;
  if (options_.journal_compact_snap_factor > 0) {
    threshold = std::max(threshold, options_.journal_compact_snap_factor *
                                        journal_->snapshot_bytes());
  }
  if (journal_->appended_bytes() < threshold) return;
  Status compacted = CompactJournal();
  (void)compacted;  // a failure already marked the journal broken
}

Status SessionManager::CompactJournal() {
  if (options_.journal_path.empty()) {
    return Status::InvalidArgument(
        "CompactJournal: no ServeOptions::journal_path configured");
  }
  if (!journal_) {
    if (journal_started_) {
      return Status::FailedPrecondition(
          "journaling was disabled by an earlier failure");
    }
    journal_ = std::make_unique<SessionJournal>(options_.journal_path);
  }
  // The sidecar goes first: the snapshot record names its sequence number,
  // so the store's bytes must be durable before a snapshot referencing
  // them can exist.
  int64_t sidecar_seq = -1;
  if (options_.notebook_store) {
    sidecar_seq = notebook_seq_ + 1;
    Status saved = options_.notebook_store->Save(
        JournalSidecarPath(options_.journal_path, sidecar_seq));
    if (!saved.ok()) {
      MarkJournalBroken(saved);
      return saved;
    }
  }
  Status reset =
      journal_->Reset(BuildJournalMeta(), CaptureJournalSnapshot(sidecar_seq));
  if (!reset.ok()) {
    MarkJournalBroken(reset);
    return reset;
  }
  journal_started_ = true;
  if (sidecar_seq >= 0) {
    notebook_seq_ = sidecar_seq;
    if (sidecar_seq >= 2) {
      // Keep the last two sidecars: this snapshot's and the one `.prev`
      // references. Older ones are dead; a failed removal leaves a stale
      // file, not corruption.
      std::remove(
          JournalSidecarPath(options_.journal_path, sidecar_seq - 2).c_str());
    }
  }
  ++stats_.journal_compactions;
  if (health_log_.enabled()) {
    health_log_.Append("journal_compact",
                       "\"seq\":" + std::to_string(sidecar_seq) +
                           ",\"sessions\":" +
                           std::to_string(active_sessions()));
  }
  return Status::OK();
}

Status SessionManager::ReplayJournalSnapshot(const JournalSnapshot& snap,
                                             const std::string& sidecar_root,
                                             RecoveryInfo* /*info*/) {
  // Phase 1 — every fallible load, before any state mutation, so the
  // caller can still fall back to `.prev` when this snapshot's sidecar is
  // unreadable (IOError = clean to fall back; InvalidArgument = hard).
  std::optional<NotebookStore> restored_store;
  if (snap.notebook_seq >= 0) {
    if (!options_.notebook_store) {
      return Status::InvalidArgument(
          "journal snapshot references notebook sidecar seq " +
          std::to_string(snap.notebook_seq) +
          " but this manager has no notebook store configured");
    }
    const std::string sidecar =
        JournalSidecarPath(sidecar_root, snap.notebook_seq);
    Result<NotebookStore> loaded = NotebookStore::Load(sidecar);
    if (!loaded.ok()) {
      return Status::IOError("notebook sidecar '" + sidecar +
                             "' unreadable: " + loaded.status().message());
    }
    restored_store.emplace(std::move(loaded).value());
  }
  std::vector<std::shared_ptr<const PolicySnapshot>> gens(
      snap.generation_paths.size());
  gens[0] = snapshot_;
  auto resolve_gen = [&](uint32_t gen) -> Status {
    if (gens[gen]) return Status::OK();
    ATENA_ASSIGN_OR_RETURN(gens[gen],
                           LoadGeneration(gen, snap.generation_paths[gen]));
    return Status::OK();
  };
  for (const JournalSessionState& st : snap.sessions) {
    if (st.gen >= gens.size() || st.stage < 0 ||
        st.stage > static_cast<int>(DegradeStage::kGreedy)) {
      return Status::InvalidArgument("journal snapshot session " +
                                     std::to_string(st.id) +
                                     " has out-of-range fields");
    }
    ATENA_RETURN_IF_ERROR(resolve_gen(st.gen));
  }
  ATENA_RETURN_IF_ERROR(resolve_gen(snap.current_gen));

  // Phase 2 — restore. From here on any failure is a hard error (state is
  // partially mutated; the caller must not fall back).
  next_id_ = snap.next_id;
  steps_served_ = snap.steps_served;
  overloaded_ = snap.overloaded;
  RestoreStats(snap.stats, &stats_);
  generation_paths_ = snap.generation_paths;
  current_gen_ = snap.current_gen;
  snapshot_ = gens[current_gen_];
  notebook_seq_ = snap.notebook_seq;
  if (restored_store) {
    // In-place move keeps every component sharing the store pointed at the
    // recovered corpus.
    *options_.notebook_store = std::move(*restored_store);
  }
  for (const JournalSessionState& st : snap.sessions) {
    SessionConfig config;
    config.seed = st.seed;
    config.max_steps = st.max_steps;
    config.greedy = st.greedy;
    auto session = BuildSession(config, st.id, gens[st.gen], st.gen);
    Session& s = *session;
    // Rebuild the environment mid-episode by re-stepping the in-progress
    // episode's recorded operations. The reward signal is detached for the
    // rebuild: recorded rewards are already in the trace, recomputing them
    // would need the exact degraded-mode history, and the signal carries
    // no state that feeds future computes (only the env's display history
    // does, and the re-stepping rebuilds exactly that).
    s.env->SetRewardSignal(nullptr);
    const size_t trace_len = st.trace.size();
    if (static_cast<size_t>(st.episode_steps) > trace_len) {
      return Status::InvalidArgument("journal snapshot session " +
                                     std::to_string(st.id) +
                                     " episode_steps exceeds its trace");
    }
    const size_t begin = trace_len - static_cast<size_t>(st.episode_steps);
    for (size_t i = begin; i < trace_len; ++i) {
      const ServedStep& step = st.trace[i];
      Result<StepOutcome> stepped = s.env->TryStepOperation(step.op);
      if (!stepped.ok()) {
        return Status::InvalidArgument(
            "journal snapshot does not replay against this dataset: "
            "session " +
            std::to_string(st.id) + " trace step " + std::to_string(i) +
            ": " + stepped.status().message());
      }
      StepOutcome outcome = std::move(stepped).value();
      const uint64_t signature = DisplayVectorKey(
          s.env->current_display(), s.env->config().stats_row_cap);
      if (outcome.valid != step.valid ||
          signature != step.display_signature) {
        return Status::InvalidArgument(
            "journal snapshot replay mismatch for session " +
            std::to_string(st.id) + " at trace step " + std::to_string(i) +
            " — the journal was written under a different dataset or "
            "environment configuration");
      }
      if (i + 1 == trace_len) s.observation = std::move(outcome.observation);
    }
    s.env->SetRewardSignal(s.reward.get());
    s.env->set_rng_state(st.env_rng);
    s.act_rng.set_state(st.act_rng);
    s.steps_done = st.steps_done;
    s.stage = static_cast<DegradeStage>(st.stage);
    s.degraded_steps = st.degraded_steps;
    if (s.stage >= DegradeStage::kNoDiversity && s.reward) {
      s.reward->SetDegradedMode(true);
    }
    s.trace.steps = st.trace;
    s.trace.total_reward = st.total_reward;
    sessions_.push_back(std::move(session));
  }
  return Status::OK();
}

Status SessionManager::ReplayJournalRecord(const JournalRecord& record,
                                           RecoveryInfo* info) {
  switch (record.kind) {
    case JournalRecord::Kind::kAdmit: {
      const JournalAdmit& admit = record.admit;
      if (admit.gen >= generation_paths_.size()) {
        return Status::InvalidArgument(
            "admit record pins unknown policy generation " +
            std::to_string(admit.gen));
      }
      std::shared_ptr<const PolicySnapshot> pinned = snapshot_;
      if (admit.gen != current_gen_) {
        // Admitted on an older generation than the final one (reloads and
        // admissions interleaved before the crash).
        ATENA_ASSIGN_OR_RETURN(
            pinned, LoadGeneration(admit.gen, generation_paths_[admit.gen]));
      }
      SessionConfig config;
      config.seed = admit.seed;
      config.max_steps = admit.max_steps;
      config.greedy = admit.greedy;
      sessions_.push_back(
          BuildSession(config, admit.id, std::move(pinned), admit.gen));
      if (admit.id >= next_id_) next_id_ = admit.id + 1;
      ++stats_.admitted;
      return Status::OK();
    }
    case JournalRecord::Kind::kReload: {
      const JournalReload& reload = record.reload;
      if (reload.gen != generation_paths_.size()) {
        return Status::InvalidArgument(
            "reload record defines generation " + std::to_string(reload.gen) +
            " out of sequence (expected " +
            std::to_string(generation_paths_.size()) + ")");
      }
      ATENA_ASSIGN_OR_RETURN(snapshot_,
                             LoadGeneration(reload.gen, reload.path));
      generation_paths_.push_back(reload.path);
      current_gen_ = reload.gen;
      ++stats_.reload_successes;
      return Status::OK();
    }
    case JournalRecord::Kind::kTick:
      return ReplayJournalTick(record.tick, info);
    case JournalRecord::Kind::kStop: {
      for (uint64_t id : record.stop_ids) {
        ATENA_ASSIGN_OR_RETURN(const size_t index, FindSession(id));
        Retire(index, RetireReason::kHardStopped, Status::OK(),
               /*env_healthy=*/true);
      }
      sessions_.erase(
          std::remove(sessions_.begin(), sessions_.end(), nullptr),
          sessions_.end());
      return Status::OK();
    }
  }
  return Status::Internal("unhandled journal record kind");
}

Status SessionManager::ReplayJournalTick(const JournalTick& tick,
                                         RecoveryInfo* info) {
  for (const JournalTickEntry& entry : tick.entries) {
    ATENA_ASSIGN_OR_RETURN(const size_t index, FindSession(entry.id));
    Session& s = *sessions_[index];
    if (entry.kind == JournalTickEntry::Kind::kQuarantine) {
      // The fault's original Status text is not journaled (only that the
      // quarantine happened); the re-delivered outcome says so.
      Retire(index, RetireReason::kQuarantined,
             Status::Internal(
                 "quarantined before the crash (original fault detail "
                 "not journaled)"),
             /*env_healthy=*/false);
      continue;
    }
    if (entry.stage_after < static_cast<int>(s.stage) ||
        entry.stage_after > static_cast<int>(DegradeStage::kGreedy)) {
      return Status::InvalidArgument("tick record stage out of range");
    }
    Result<StepOutcome> stepped = s.env->TryStepOperation(entry.step.op);
    if (!stepped.ok()) {
      return Status::InvalidArgument(
          "journal does not replay against this dataset/snapshot: session " +
          std::to_string(entry.id) + " step " + std::to_string(s.steps_done) +
          ": " + stepped.status().message());
    }
    StepOutcome outcome = std::move(stepped).value();
    ServedStep recorded = RecordStep(outcome, *s.env);
    // The replay-verification invariant: the recomputed step must match
    // the journaled one bit-for-bit, or this journal belongs to a
    // different dataset, policy snapshot or reward configuration.
    if (recorded.valid != entry.step.valid ||
        recorded.reward != entry.step.reward ||
        recorded.display_signature != entry.step.display_signature) {
      return Status::InvalidArgument(
          "journal replay mismatch for session " + std::to_string(entry.id) +
          " at step " + std::to_string(s.steps_done) +
          " — the journal was written under a different dataset, policy "
          "snapshot or reward configuration");
    }
    // The recorded post-step stream states (the replayed operation itself
    // consumed no randomness, so the live states are still the recorded
    // deltas' pre-step base; the commit's episode-boundary Reset consumes
    // none either).
    s.env->set_rng_state(
        MaterializeJournalRng(entry.env_rng, s.env->rng_state()));
    s.act_rng.set_state(
        MaterializeJournalRng(entry.act_rng, s.act_rng.state()));
    ++info->steps_replayed;
    CommitStep(index, std::move(recorded), std::move(outcome), entry.end,
               static_cast<DegradeStage>(entry.stage_after));
  }
  sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), nullptr),
                  sessions_.end());
  overloaded_ = tick.overloaded;
  ++info->ticks_replayed;
  return Status::OK();
}

Result<size_t> SessionManager::FindSession(uint64_t id) const {
  for (size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i] && sessions_[i]->id == id) return i;
  }
  return Status::InvalidArgument("journal record references unknown session " +
                                 std::to_string(id));
}

Result<std::shared_ptr<const PolicySnapshot>> SessionManager::LoadGeneration(
    uint32_t gen, const std::string& path) const {
  Result<std::shared_ptr<PolicySnapshot>> loaded =
      LoadPolicySnapshot(snapshot_->dataset(), snapshot_->options(), path);
  if (!loaded.ok()) {
    return Status::IOError("recovery cannot load policy generation " +
                           std::to_string(gen) + " from '" + path +
                           "': " + loaded.status().message());
  }
  return std::shared_ptr<const PolicySnapshot>(std::move(loaded).value());
}

Status SessionManager::RecoverFromJournal(const std::string& path,
                                          RecoveryInfo* info) {
  RecoveryInfo local;
  RecoveryInfo* out = info ? info : &local;
  *out = RecoveryInfo{};
  if (!sessions_.empty() || steps_served_ != 0 || next_id_ != 1 ||
      journal_started_) {
    return Status::FailedPrecondition(
        "RecoverFromJournal requires a freshly constructed manager");
  }
  const std::string prev_path = path + ".prev";
  const bool have_main = FileExists(path);
  const bool have_prev = FileExists(prev_path);
  if (!have_main && !have_prev) {
    return Status::NotFound("no journal at '" + path + "'");
  }

  JournalContents main_contents;
  if (have_main) {
    Result<JournalContents> parsed = ReadJournal(path);
    if (!parsed.ok()) return parsed.status();
    main_contents = std::move(parsed).value();
    if (main_contents.has_meta) {
      ATENA_RETURN_IF_ERROR(VerifyJournalMeta(main_contents.meta));
    }
  }

  struct RecoveringGuard {
    bool* flag;
    ~RecoveringGuard() { *flag = false; }
  } guard{&recovering_};
  recovering_ = true;

  // Choose and restore the base state: the journal's own compaction
  // snapshot when it decodes (sidecar included), else `.prev` replayed in
  // full — it ends exactly at the state the corrupt snapshot captured.
  JournalContents prev_contents;
  bool based = false;
  Status base_error;
  if (have_main && main_contents.has_meta && main_contents.snapshot_valid) {
    base_error = ReplayJournalSnapshot(main_contents.snapshot, path, out);
    if (base_error.ok()) {
      based = true;
    } else if (base_error.code() == StatusCode::kInvalidArgument) {
      return base_error;  // config mismatch or partial mutation: no fallback
    }
  } else if (have_main && main_contents.has_meta) {
    base_error =
        Status::IOError("compaction snapshot in '" + path + "' is unreadable");
  }
  if (!based) {
    if (have_prev) {
      Result<JournalContents> parsed = ReadJournal(prev_path);
      if (!parsed.ok()) return parsed.status();
      prev_contents = std::move(parsed).value();
      if (!prev_contents.has_meta || !prev_contents.snapshot_valid) {
        return Status::IOError("journal '" + path + "' and its fallback '" +
                               prev_path + "' are both unusable");
      }
      ATENA_RETURN_IF_ERROR(VerifyJournalMeta(prev_contents.meta));
      ATENA_RETURN_IF_ERROR(
          ReplayJournalSnapshot(prev_contents.snapshot, path, out));
      for (const JournalRecord& record : prev_contents.records) {
        ATENA_RETURN_IF_ERROR(ReplayJournalRecord(record, out));
      }
      out->torn_tail = out->torn_tail || !prev_contents.clean_tail;
      out->used_prev_fallback = true;
      ++stats_.recovery_fallbacks;
      based = true;
      if (health_log_.enabled()) {
        health_log_.Append(
            "recover_fallback",
            "\"path\":" + JsonString(path) + ",\"detail\":" +
                JsonString(base_error.ok() ? "snapshot unreadable"
                                           : base_error.message()));
      }
    } else if (have_main && (main_contents.header_torn ||
                             !main_contents.has_meta)) {
      // Nothing durable ever made it into the journal: the empty prefix is
      // the correct recovered state.
      out->torn_tail = true;
      based = true;
    } else {
      return base_error.ok()
                 ? Status::IOError("journal '" + path +
                                   "' has no usable base state and no '" +
                                   prev_path + "' fallback")
                 : base_error;
    }
  }

  // Apply the records appended after the (possibly corrupt) snapshot.
  if (have_main && main_contents.has_meta) {
    for (const JournalRecord& record : main_contents.records) {
      ATENA_RETURN_IF_ERROR(ReplayJournalRecord(record, out));
    }
    out->torn_tail = out->torn_tail || !main_contents.clean_tail;
  }
  recovering_ = false;

  out->sessions_restored = active_sessions();
  stats_.recovered_sessions += out->sessions_restored;
  if (health_log_.enabled()) {
    // 0 steps over 0 served is NaN — exactly what JsonNumber's quoted
    // non-finite convention exists for.
    const double degraded_frac = static_cast<double>(stats_.degraded_steps) /
                                 static_cast<double>(steps_served_);
    health_log_.Append(
        "recover_ok",
        "\"sessions\":" + std::to_string(out->sessions_restored) +
            ",\"ticks\":" + std::to_string(out->ticks_replayed) +
            ",\"steps\":" + std::to_string(out->steps_replayed) +
            ",\"fallback\":" + (out->used_prev_fallback ? "true" : "false") +
            ",\"torn_tail\":" + (out->torn_tail ? "true" : "false") +
            ",\"degraded_frac\":" + JsonNumber(degraded_frac));
  }
  // Close recovery with a compaction: the next crash replays from here,
  // not from the pre-crash snapshot again.
  if (!options_.journal_path.empty()) {
    Status compacted = CompactJournal();
    (void)compacted;  // a failure already marked the journal broken
  }
  return Status::OK();
}

std::vector<SessionOutcome> SessionManager::TakeCompleted() {
  // Delivery is the group-commit barrier: the tick records that produced
  // these outcomes (and any earlier unsynced ones) become durable with
  // one fdatasync before the outcomes become externally visible. Ticks
  // whose completions nobody has collected yet cost no flush at all.
  if (!completed_.empty()) SyncJournal();
  std::vector<SessionOutcome> out = std::move(completed_);
  completed_.clear();
  return out;
}

std::vector<NotebookStore::Match> SessionManager::QuerySimilarNotebooks(
    const std::vector<std::vector<double>>& display_vectors, int k) const {
  if (!options_.notebook_store) return {};
  return options_.notebook_store->TopK(display_vectors, k);
}

SessionTrace ServeSingleSessionSerial(const PolicySnapshot& snapshot,
                                      const SessionConfig& config,
                                      RewardSignal* reward) {
  EnvConfig env_config = snapshot.options().env;
  env_config.seed = config.seed;
  EdaEnvironment env(snapshot.dataset(), env_config);
  env.SetRewardSignal(reward);
  Rng act_rng(ActingStreamSeed(config.seed));
  const int max_steps = EffectiveMaxSteps(config, env_config);

  SessionTrace trace;
  trace.seed = config.seed;
  trace.steps.reserve(static_cast<size_t>(max_steps));
  std::vector<double> observation = env.Reset();
  TwofoldPolicy* policy = snapshot.policy();
  for (int step = 0; step < max_steps; ++step) {
    const PolicyStep act = config.greedy ? policy->ActGreedy(observation)
                                         : policy->Act(observation, &act_rng);
    StepOutcome out = ApplyAction(&env, act.action);
    trace.steps.push_back(RecordStep(out, env));
    trace.total_reward += out.reward;
    if (out.done && step + 1 < max_steps) {
      observation = env.Reset();
    } else {
      observation = std::move(out.observation);
    }
  }
  return trace;
}

}  // namespace atena
