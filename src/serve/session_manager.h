#ifndef ATENA_SERVE_SESSION_MANAGER_H_
#define ATENA_SERVE_SESSION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "eda/display_cache.h"
#include "eda/environment.h"
#include "index/notebook_store.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "rl/policy.h"
#include "serve/journal.h"
#include "serve/snapshot.h"

namespace atena {

/// Everything that identifies one served exploration session. Two sessions
/// with equal configs produce bit-identical traces, no matter how many
/// other sessions they were batched with, which thread count stepped them,
/// or when they joined (test-enforced, tests/serve_test.cc) — and no matter
/// which *other* sessions were quarantined, shed or deadline-degraded
/// around them (tests/serve_faults_test.cc).
struct SessionConfig {
  /// Derives both of the session's private streams: the environment's
  /// filter-term stream (EnvConfig::seed) and the acting stream
  /// (ActingStreamSeed below).
  uint64_t seed = 1;
  /// Total environment steps to serve. When it exceeds the episode length
  /// the session spans several episodes — the environment is reset in
  /// between, like an analyst opening a fresh notebook. 0 = one episode.
  int max_steps = 0;
  /// Greedy (argmax) acting instead of Boltzmann sampling.
  bool greedy = false;
};

/// The complete record of one finished session (ServedStep, one served
/// step, is declared with the journal that records it: serve/journal.h).
struct SessionTrace {
  uint64_t id = 0;
  uint64_t seed = 0;
  std::vector<ServedStep> steps;
  double total_reward = 0.0;
};

/// Why a session left the runtime.
enum class RetireReason {
  kCompleted = 0,        // served its full step budget
  kQuarantined,          // env step / reward / policy output fault
  kDeadlineExceeded,     // exhausted the degradation ladder
  kHardStopped,          // second stop request: partial notebook, no fault
};
const char* RetireReasonName(RetireReason reason);

/// The degradation ladder a session walks when its steps blow the deadline
/// budget (each additional overrun escalates one stage):
///   kNormal      → full reward, sampled acting;
///   kNoDiversity → the reward signal's degraded mode skips the diversity
///                  min-distance scan (RewardSignal::SetDegradedMode). That
///                  scan is linear in the session's display history
///                  (DESIGN.md §14), so skipping it is the cheap first
///                  response: a long episode sheds its one per-step cost
///                  that grows with age, and the acting stream is kept;
///   kGreedy      → argmax acting: the session stops consuming its acting
///                  stream entirely. One more overrun retires the session
///                  with kDeadlineExceeded.
enum class DegradeStage { kNormal = 0, kNoDiversity = 1, kGreedy = 2 };
const char* DegradeStageName(DegradeStage stage);

/// The structured result of one session leaving the runtime: the (possibly
/// partial) notebook plus why it ended. `status` is OK for kCompleted and
/// kHardStopped; quarantines carry the fault's Status and deadline
/// retirements carry kResourceExhausted-flavoured detail.
struct SessionOutcome {
  SessionTrace trace;
  RetireReason reason = RetireReason::kCompleted;
  Status status;
  /// Where on the degradation ladder the session ended.
  DegradeStage final_stage = DegradeStage::kNormal;
  /// Steps executed at any degraded stage (>= kNoDiversity).
  int degraded_steps = 0;
};

/// The acting stream seed derived from a session seed. Kept distinct from
/// the environment stream (which uses the seed directly) so term sampling
/// and action sampling never alias.
uint64_t ActingStreamSeed(uint64_t session_seed);

/// Deterministic fault-injection hooks for tests (the file_io / PpoUpdater
/// idiom): each hook is keyed by the raw call's identity — (session id,
/// step index) — not by call order, so injected faults land on the same
/// logical step at any thread count. Hooks are read concurrently from
/// worker threads during Tick: they must be pure functions of their
/// arguments and must not be reinstalled while serving.
struct ServeFaultInjection {
  /// Consulted before each environment step; non-OK fails that step as if
  /// the environment had errored (the env is not touched), quarantining
  /// the session.
  std::function<Status(uint64_t session_id, int step_index)> env_step;
  /// When set, replaces the measured wall-clock duration of each step —
  /// the deterministic trigger for the deadline/degradation ladder.
  std::function<int64_t(uint64_t session_id, int step_index)>
      step_duration_nanos;
};

/// Runtime knobs of a SessionManager. The fault-domain knobs (deadline,
/// admission cap, watermark) change which sessions are served or degraded
/// — but never the trace of a session they leave alone.
struct ServeOptions {
  /// Worker threads for environment stepping; 0 = all hardware cores.
  int num_threads = 0;
  /// Builds the per-session reward signal. Each session needs its own
  /// instance because Compute is stateful; share only internally-const
  /// state (e.g. one trained CoherencyClassifier) across the factory's
  /// products. Null → rewards are 0 / the invalid penalty.
  std::function<std::shared_ptr<RewardSignal>()> reward_factory;

  /// Admission control: hard cap on concurrently live sessions (0 = no
  /// cap). Admit returns kResourceExhausted at the cap instead of letting
  /// tick latency collapse for everyone.
  int max_sessions = 0;
  /// Load shedding: with a cap and a deadline configured, Admit also
  /// sheds once live sessions reach `shed_watermark * max_sessions` AND
  /// the previous tick overran the deadline on average — the runtime is
  /// already too slow, so refusing new work beats degrading all of it.
  double shed_watermark = 0.9;

  /// Per-step deadline in nanoseconds (0 = no deadlines). A session whose
  /// environment step exceeds it escalates one DegradeStage per overrun
  /// and is retired with kDeadlineExceeded past the last stage.
  int64_t step_deadline_nanos = 0;

  /// ReloadSnapshot retry budget: on a failed load the reload is retried
  /// up to this many more times, sleeping reload_backoff_nanos, 2x, 4x...
  /// between attempts, before keeping the last-good snapshot and
  /// returning the error.
  int reload_retries = 2;
  int64_t reload_backoff_nanos = 100 * 1000 * 1000;  // 100ms
  /// Replaces the real backoff sleep (tests). Null = SleepForNanos.
  std::function<void(int64_t nanos)> reload_sleep;

  /// Cross-session notebook corpus (DESIGN.md §14). When set, every
  /// finished notebook — one per episode boundary inside a longer
  /// session, plus the final (possibly partial) one at retire when the
  /// environment is healthy — is registered with its display-vector
  /// sequence, and QuerySimilarNotebooks serves top-k retrieval over the
  /// corpus. Shareable across managers (the store locks internally).
  /// Null disables registration and retrieval.
  std::shared_ptr<NotebookStore> notebook_store;

  /// JSONL serving-health log path (common/event_log.h); empty disables.
  /// An existing log is continued after its last complete line.
  std::string health_log_path;

  /// Write-ahead session journal path (DESIGN.md §15); empty disables
  /// durability. The journal starts lazily on the first state transition
  /// (admit / tick / reload / hard stop), so constructing a manager never
  /// clobbers an existing journal before RecoverFromJournal reads it. An
  /// append or compaction failure disables journaling for the rest of the
  /// manager's life (the prefix already on disk stays recoverable) and
  /// serving continues — durability degrades, availability does not.
  std::string journal_path;
  /// Auto-compaction floor: once the bytes appended since the last
  /// compaction exceed both this floor and `journal_compact_snap_factor`
  /// times the last compaction snapshot's own size, the next Tick
  /// rewrites the journal against a full state snapshot — keeping
  /// recovery cost bounded by the compaction interval instead of the
  /// runtime's age. 0 disables auto-compaction (CompactJournal can still
  /// be called manually).
  int64_t journal_compact_bytes = int64_t{1} << 20;
  /// The snapshot-relative term of the auto-compaction threshold: the
  /// log must also outgrow this multiple of the last snapshot's encoded
  /// size. Rewriting the snapshot costs O(live set), so requiring the
  /// log to grow in proportion first keeps compaction work amortized
  /// O(1) per appended byte no matter how many sessions are live —
  /// without it, a 1024-session deployment (whose every tick appends
  /// about a snapshot's worth of bytes) would re-encode its full state
  /// every handful of ticks. <= 0 disables the snapshot-relative term
  /// (the byte floor alone decides).
  int64_t journal_compact_snap_factor = 8;

  /// Deterministic fault hooks; default-constructed = no faults.
  ServeFaultInjection fault_injection;
};

/// Aggregate fault-domain accounting across the manager's lifetime.
struct ServeStats {
  int64_t admitted = 0;
  int64_t completed = 0;
  int64_t quarantined = 0;
  /// Admissions refused (hard cap or watermark shed).
  int64_t shed = 0;
  int64_t deadline_retired = 0;
  int64_t hard_stopped = 0;
  /// Degradation-ladder escalations (stage transitions, incl. the final
  /// one that retires a session).
  int64_t degrade_transitions = 0;
  /// Steps executed at stage >= kNoDiversity / stage >= kGreedy.
  int64_t degraded_steps = 0;
  int64_t degraded_greedy_steps = 0;
  int64_t reload_successes = 0;
  int64_t reload_failures = 0;
  /// Display-vector sequences registered in the notebook store (excludes
  /// sequences below the store's min length and quarantined sessions).
  int64_t notebooks_registered = 0;
  /// Journal appends (admits + per-tick group commits + reloads + hard
  /// stops) and the bytes they wrote.
  int64_t journal_appends = 0;
  int64_t journal_bytes = 0;
  /// Durability barriers actually flushed (one fdatasync each). Group
  /// commit makes this ≤ journal_appends: consecutive tick records share
  /// the barrier that precedes the next external acknowledgement
  /// (admission, reload, hard stop, or TakeCompleted delivery).
  int64_t journal_syncs = 0;
  /// Journal append/compaction failures. The first one disables journaling
  /// for the rest of the manager's life; serving continues unjournaled.
  int64_t journal_failures = 0;
  /// Compactions (including the lazy initial start and the one closing a
  /// successful recovery).
  int64_t journal_compactions = 0;
  /// Live sessions rebuilt by RecoverFromJournal.
  int64_t recovered_sessions = 0;
  /// Recoveries that fell back to `<path>.prev` across a corrupt
  /// compaction snapshot.
  int64_t recovery_fallbacks = 0;
};

/// Multi-session policy-serving runtime: one immutable PolicySnapshot
/// per session (normally shared by all), N concurrent EDA sessions, one
/// batched act per scheduler tick (DESIGN.md §11), wrapped in a fault
/// domain per session (DESIGN.md §13).
///
/// Tick() runs the lockstep discipline proven out by ParallelPpoTrainer,
/// with every per-session phase on the ThreadPool:
///   1. parallel act  — live sessions are grouped by their pinned snapshot
///                     (admission order; one group in steady state) and
///                     each group is cut into one block of whole 4-row
///                     tiles per pool thread; each block is acted in one
///                     const TwofoldPolicy::ActBatch on its own
///                     manager-owned workspace over the one frozen network,
///                     with the sessions' private Rng streams (row i
///                     consumes only rngs[i], so a row's result is
///                     independent of who else is in the batch or block);
///   2. parallel step — fan the environment steps out, each worker writing
///                     an index-addressed slot: it times its step against
///                     the deadline clock, records the served step, decides
///                     how the step's commit ends (budget, deadline ladder)
///                     and encodes the session's journal entry;
///   3. serial commit — in admission order: append the encoded entries,
///                     quarantine faulted sessions, append traces, count,
///                     walk the degradation ladder, retire finished
///                     sessions, register notebooks and reset episode
///                     boundaries.
/// Sessions touch only their own environment plus the shared DisplayCache,
/// whose hits are bit-identical to recomputes — so every session's trace
/// equals the single-session serial reference (ServeSingleSessionSerial),
/// bit for bit, at any thread count and under any join/leave pattern; and
/// because a faulted session's fault domain is itself, the survivors of a
/// quarantine are bit-identical to a run where the failed session was
/// never admitted (tests/serve_faults_test.cc).
///
/// Not thread-safe itself: Admit/Tick/Drain/HardStop/ReloadSnapshot/
/// TakeCompleted must be called from one scheduler thread.
class SessionManager {
 public:
  SessionManager(std::shared_ptr<const PolicySnapshot> snapshot,
                 ServeOptions options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admits a session (recycling a pooled environment when one is free);
  /// it starts stepping on the next Tick, pinned to the snapshot current
  /// at admission. Returns the session id, or kResourceExhausted when the
  /// runtime is at max_sessions (or shedding at the watermark) — overload
  /// is a structured refusal, never a latency collapse.
  Result<uint64_t> Admit(const SessionConfig& config);

  /// Advances every live session by one environment step. Returns the
  /// number of steps executed (0 when no session is live).
  int Tick();

  /// Ticks until every admitted session has finished — the graceful-drain
  /// path of the serving binary (finish in-flight sessions, admit none).
  void Drain();

  /// Immediately retires every live session with its partial notebook,
  /// flagged kHardStopped — the second-stop-request path. Environments
  /// are healthy (no fault occurred) and return to the pool. Returns the
  /// number of sessions stopped.
  int HardStop();

  /// Validates `path` and atomically swaps the serving snapshot between
  /// ticks: new admissions pin the new snapshot, in-flight sessions
  /// finish on their admission-time snapshot (shared_ptr pinning). A
  /// corrupt, truncated or architecture-mismatched file never replaces
  /// the last-good snapshot: the load is retried under the bounded
  /// backoff budget (ServeOptions::reload_retries), then the error is
  /// returned and serving continues unchanged.
  Status ReloadSnapshot(const std::string& path);

  /// What RecoverFromJournal found and did.
  struct RecoveryInfo {
    int sessions_restored = 0;
    int64_t ticks_replayed = 0;
    int64_t steps_replayed = 0;
    /// The journal's compaction snapshot was unreadable and the base state
    /// was replayed from `<path>.prev` instead.
    bool used_prev_fallback = false;
    /// A torn or corrupt suffix was dropped (prefix semantics). Not a
    /// loss: the recovered runtime re-executes those ticks identically.
    bool torn_tail = false;
  };

  /// Rebuilds the manager's entire serving state from the journal at
  /// `path` (DESIGN.md §15): restores the compaction snapshot (re-stepping
  /// each session's in-progress episode to rebuild its environment, and
  /// restoring the shared NotebookStore from the snapshot's sidecar), then
  /// replays every appended record — admissions, group-committed ticks,
  /// reloads, hard stops — verifying each replayed step's validity, reward
  /// and display signature bit-exactly against the recorded values, so a
  /// journal can never silently replay against the wrong dataset, snapshot
  /// or reward configuration. After recovery every live session's
  /// subsequent trace is bit-identical to an uninterrupted run
  /// (test-enforced, tests/serve_journal_test.cc).
  ///
  /// Tolerates a torn tail (crash mid-append) by dropping the incomplete
  /// suffix, and a corrupt compaction snapshot by replaying `<path>.prev`
  /// before applying the records that followed the compaction. Outcomes of
  /// sessions that retired after the last compaction are re-delivered
  /// through TakeCompleted — at-least-once semantics; consumers that must
  /// not double-count dedupe by session id.
  ///
  /// Must be called on a freshly constructed manager (before any Admit or
  /// Tick), built with the same dataset/options the journal was written
  /// under. On success the journal is immediately compacted against the
  /// recovered state. Returns NotFound when neither `path` nor its .prev
  /// exists; a verification mismatch or unusable base state is an error
  /// and leaves the manager unusable (construct a new one to retry).
  Status RecoverFromJournal(const std::string& path,
                            RecoveryInfo* info = nullptr);

  /// Rewrites the journal now against a full state snapshot (persisting
  /// the NotebookStore sidecar first), preserving the pre-compaction
  /// journal as `<path>.prev`. Requires ServeOptions::journal_path.
  Status CompactJournal();

  /// True while journaling is configured and has not been disabled by an
  /// append/compaction failure.
  bool journal_healthy() const {
    return !options_.journal_path.empty() &&
           (journal_ != nullptr || !journal_started_);
  }

  /// Moves out the outcomes of sessions finished since the last call, in
  /// completion order (quarantined and hard-stopped sessions included,
  /// with partial traces). When journaling, delivery is the group-commit
  /// durability barrier: the journal is fdatasynced (once, covering every
  /// record appended since the last barrier) before outcomes become
  /// visible, so no outcome the caller observes can be lost by a crash.
  std::vector<SessionOutcome> TakeCompleted();

  int active_sessions() const { return static_cast<int>(sessions_.size()); }
  int64_t steps_served() const { return steps_served_; }
  const ServeStats& stats() const { return stats_; }
  /// The snapshot new admissions would pin (the last-good one).
  const std::shared_ptr<const PolicySnapshot>& snapshot() const {
    return snapshot_;
  }
  /// The display cache all sessions share, configured (enabled flag,
  /// capacity, byte budget, shards) by the snapshot's EnvConfig; null when
  /// that config disables caching.
  const std::shared_ptr<DisplayCache>& display_cache() const {
    return cache_;
  }
  /// The shared notebook corpus, or null when not configured.
  const std::shared_ptr<NotebookStore>& notebook_store() const {
    return options_.notebook_store;
  }
  /// Top-k past notebooks most similar to `display_vectors` (NotebookRAG-
  /// style retrieval over the shared corpus; see NotebookStore::TopK).
  /// Empty when no store is configured.
  std::vector<NotebookStore::Match> QuerySimilarNotebooks(
      const std::vector<std::vector<double>>& display_vectors, int k) const;

 private:
  struct Session {
    uint64_t id = 0;
    SessionConfig config;
    int effective_max_steps = 0;
    int steps_done = 0;
    Rng act_rng;
    std::vector<double> observation;
    std::unique_ptr<EdaEnvironment> env;
    std::shared_ptr<RewardSignal> reward;
    /// The snapshot this session acts on, pinned at admission; a reload
    /// between its ticks never changes its policy.
    std::shared_ptr<const PolicySnapshot> snapshot;
    /// Generation index of `snapshot` (0 = the constructor snapshot) —
    /// what the journal records so recovery can re-pin the same policy.
    uint32_t snapshot_gen = 0;
    DegradeStage stage = DegradeStage::kNormal;
    int degraded_steps = 0;
    SessionTrace trace;
  };

  /// Index-addressed result slot of one session's parallel step; every
  /// field but `status` is valid only when `status.ok()`.
  struct StepSlot {
    Status status;  // non-OK => quarantine
    StepOutcome outcome;
    int64_t duration_nanos = 0;
    ServedStep step;
    /// How the commit ends (a JournalTickEntry::End) and the stage after.
    int end = 0;
    DegradeStage stage_after = DegradeStage::kNormal;
    /// The session's encoded journal entry (journaling only); the string
    /// keeps its capacity across ticks.
    std::string journal_entry;
  };

  /// One pool thread's share of a snapshot group's acting: whole 4-row
  /// tiles of observations, their streams, and the workspace the frozen
  /// network runs them on.
  struct ActBlock {
    Matrix observations;
    std::vector<Rng*> rngs;
    Workspace workspace;
  };

  std::unique_ptr<EdaEnvironment> AcquireEnv(uint64_t seed);
  /// The common session construction shared by Admit and journal replay.
  std::unique_ptr<Session> BuildSession(
      const SessionConfig& config, uint64_t id,
      std::shared_ptr<const PolicySnapshot> snapshot, uint32_t gen);
  /// Acts the live sessions at `members` (indices into sessions_, all
  /// pinned to one snapshot) into acts_, one ParallelFor over row blocks.
  void ActGroup(const std::vector<int>& members);
  /// The parallel step of sessions_[index] into slots_[index]: screen the
  /// act, step the environment, then the per-session commit work (record
  /// the step, decide its end, encode its journal entry).
  void StepSession(int index, bool journaling);
  /// Retires sessions_[index] (serial commit only). The env returns to
  /// the pool when `env_healthy`; a quarantined env may be mid-mutation
  /// and is discarded.
  void Retire(size_t index, RetireReason reason, Status status,
              bool env_healthy);
  /// The serial commit of one executed step of sessions_[index], shared
  /// by Tick and journal replay: records `step` (counting it as degraded
  /// at the stage it ran at), walks the degradation ladder down to
  /// `stage_after`, then ends as `end` (a JournalTickEntry::End) says —
  /// the session retires completed or deadline-retired, or it stays live
  /// and crosses an episode boundary when `outcome.done`.
  void CommitStep(size_t index, ServedStep step, StepOutcome outcome,
                  int end, DegradeStage stage_after);
  /// Registers the session's current display-vector sequence in the
  /// notebook store (no-op without a store; the store skips sequences
  /// below its minimum length).
  void RegisterNotebook(const Session& session);
  /// Appends a per-session event to the health log. A no-op while
  /// recovering: each event is durably logged before the tick record
  /// carrying its transition is appended, so a replayed event is already
  /// in the log.
  void LogSessionEvent(const char* type, const Session& session,
                       const std::string& extra);

  // --- Durability (DESIGN.md §15). All no-ops without a journal_path. ---
  JournalMeta BuildJournalMeta() const;
  Status VerifyJournalMeta(const JournalMeta& meta) const;
  /// Full manager state for a compaction snapshot; `notebook_seq` is the
  /// sidecar sequence the caller just persisted (-1 = no store).
  JournalSnapshot CaptureJournalSnapshot(int64_t notebook_seq) const;
  /// Starts the journal lazily on the first state transition by running an
  /// initial compaction; does nothing once started, broken or recovering.
  void EnsureJournalStarted();
  /// First journal failure: log it, count it, stop journaling for good.
  void MarkJournalBroken(Status status);
  /// Books a finished append (or breaks the journal on failure).
  void AccountJournalAppend(Status status, int64_t bytes_before);
  /// Durability barrier: one fdatasync covering every record appended
  /// since the last barrier (group commit across ticks and admissions).
  /// Placed after externally acknowledged transitions (reload, hard stop)
  /// and before TakeCompleted hands outcomes out. Breaks the journal on
  /// failure; no-op when nothing is unsynced.
  void SyncJournal();
  void MaybeAutoCompact();
  /// Recovery internals: restore the compaction snapshot (sessions, store,
  /// generations, stats), then replay one appended record at a time.
  Status ReplayJournalSnapshot(const JournalSnapshot& snap,
                               const std::string& sidecar_root,
                               RecoveryInfo* info);
  Status ReplayJournalRecord(const JournalRecord& record, RecoveryInfo* info);
  Status ReplayJournalTick(const JournalTick& tick, RecoveryInfo* info);
  /// The index of live session `id` in sessions_ (InvalidArgument when a
  /// replayed record references a session that is not live).
  Result<size_t> FindSession(uint64_t id) const;
  /// Loads policy generation `gen` from `path` for recovery.
  Result<std::shared_ptr<const PolicySnapshot>> LoadGeneration(
      uint32_t gen, const std::string& path) const;

  std::shared_ptr<const PolicySnapshot> snapshot_;
  ServeOptions options_;
  std::shared_ptr<DisplayCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  EventLog health_log_;

  std::vector<std::unique_ptr<Session>> sessions_;  // admission order
  std::vector<SessionOutcome> completed_;
  /// Retired sessions' environments, reseeded and reused by Admit: the
  /// per-environment setup (root selection, encoder layout) depends only
  /// on the dataset, so recycling skips it entirely.
  std::vector<std::unique_ptr<EdaEnvironment>> env_pool_;

  uint64_t next_id_ = 1;
  int64_t steps_served_ = 0;
  ServeStats stats_;
  /// The journal writer; null until the lazy start, and again forever
  /// after the first append/compaction failure.
  std::unique_ptr<SessionJournal> journal_;
  bool journal_started_ = false;
  /// True while RecoverFromJournal replays — suppresses journal appends
  /// and the lazy start, so replaying records never rewrites the journal
  /// being read.
  bool recovering_ = false;
  /// Policy-snapshot path per generation; index 0 is the constructor
  /// snapshot (path unknown, stored empty). Reloads append.
  std::vector<std::string> generation_paths_{std::string()};
  uint32_t current_gen_ = 0;
  /// Sequence number of the last persisted NotebookStore sidecar.
  int64_t notebook_seq_ = -1;
  /// True when the previous tick's mean step duration overran the
  /// deadline — the watermark shed signal.
  bool overloaded_ = false;

  // Tick scratch, reused across calls.
  std::vector<PolicyStep> acts_;
  /// One per pool thread at most. Cleared by a successful reload, so the
  /// workspaces do not keep slots for networks no session uses any more.
  std::vector<ActBlock> act_blocks_;
  std::vector<StepSlot> slots_;
  /// Pre-step stream states captured at the top of a journaled tick, the
  /// base MakeJournalRng delta-encodes each entry's post-step state
  /// against (reused across ticks to stay allocation-free).
  std::vector<RngState> env_rng_before_;
  std::vector<RngState> act_rng_before_;
  /// Reusable tick-record payload writer: the serial commit appends the
  /// entries the parallel step encoded into each slot (no JournalTick
  /// materialization, no operation/term copies on the hot path).
  JournalTickBuilder tick_builder_;
};

/// Serves one session start to finish with per-sample acting on a private
/// environment and a private cache — the serial reference every served
/// trace must match bit-for-bit. `reward` may be null; like the manager's
/// sessions it must be a fresh instance per call (Compute is stateful).
SessionTrace ServeSingleSessionSerial(const PolicySnapshot& snapshot,
                                      const SessionConfig& config,
                                      RewardSignal* reward);

}  // namespace atena

#endif  // ATENA_SERVE_SESSION_MANAGER_H_
