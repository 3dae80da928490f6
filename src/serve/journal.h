#ifndef ATENA_SERVE_JOURNAL_H_
#define ATENA_SERVE_JOURNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/file_io.h"
#include "common/random.h"
#include "common/status.h"
#include "eda/operation.h"

namespace atena {

/// Write-ahead session journal (DESIGN.md §15): the durability layer of
/// the serving runtime. The SessionManager appends one framed record per
/// state transition — admission, snapshot reload, one *group-committed*
/// record per tick covering every stepped session, hard stop — plus a
/// periodic compaction that rewrites the file against a full session-state
/// snapshot so recovery cost stays bounded by the compaction interval, not
/// the age of the runtime.
///
/// File layout (append-only text, CRC-framed per record):
///
///   ATENA-SJL v1\n
///   ATJ <type> <crc32-8hex> <payload-bytes>\n<payload>\n
///   ATJ ...
///
/// The first record is always `meta` (format version, dataset id and the
/// env dimensions that bind the journal to one serving configuration);
/// a compacted journal's second record is `snap`. Each record's payload is
/// independently checksummed, so a reader can stop at the longest valid
/// prefix: a torn tail (crash mid-append) or a corrupt record drops that
/// record and everything after it — never the durable prefix. Because the
/// runtime is bit-deterministic, a dropped suffix is not data loss: the
/// recovered runtime simply re-executes those ticks and produces the same
/// bytes again. The one record with a fallback instead of prefix semantics
/// is a corrupt `snap`: its pre-compaction journal survives next to the
/// file as `<path>.prev` and replays to the exact state the snapshot
/// captured, after which the corrupt journal's remaining records apply.
///
/// Why replay works bit-exactly: step records carry the *concrete*
/// operation (filter terms resolved), and EdaEnvironment::TryStepOperation
/// consumes no randomness — so replay applies recorded operations and then
/// restores the recorded post-step RNG states, the same idiom training
/// resume uses (DESIGN.md §7). Rewards and display signatures recomputed
/// during replay are verified against the recorded values, so a journal
/// can never silently replay against the wrong dataset, snapshot or
/// reward configuration.

/// Binds a journal to one serving configuration; verified before replay.
struct JournalMeta {
  int version = 1;
  std::string dataset_id;
  int observation_dim = 0;
  int episode_length = 0;
  int num_term_bins = 0;
};

/// One served step of a session's trace — also what the journal records
/// per committed step and verifies on replay: the concrete operation plus
/// the step's observable products.
struct ServedStep {
  EdaOperation op;
  bool valid = true;
  double reward = 0.0;
  /// Canonical signature of the display the step landed on — a pure
  /// function of the logical display (DisplayVectorKey), so traces can be
  /// compared bit-exactly without retaining row sets.
  uint64_t display_signature = 0;
};

/// A session admission: everything Admit needs to rebuild the session
/// deterministically. `max_steps`/`greedy` are the raw SessionConfig
/// values; `gen` pins the policy-snapshot generation (0 = the snapshot the
/// manager was constructed with; reload records define later generations).
struct JournalAdmit {
  uint64_t id = 0;
  uint64_t seed = 0;
  int max_steps = 0;
  bool greedy = false;
  uint32_t gen = 0;
};

/// A successful hot snapshot reload: generation `gen` now serves new
/// admissions, loaded from `path` (which must stay readable for recovery
/// of sessions pinned to it).
struct JournalReload {
  uint32_t gen = 0;
  std::string path;
};

/// A session RNG stream's post-step state as journaled. The common wire
/// form is a *delta*: the number of raw xoshiro draws the step consumed
/// since the stream's pre-step state (typically 0–3 — a handful of bytes
/// instead of four 20-digit words), plus the Marsaglia spare when one is
/// cached, which advancing the words alone cannot reproduce (an absent
/// spare's stale bytes carry over from the pre-step state and are not
/// journaled). The full four-word state is the automatic fallback
/// whenever the writer cannot prove that advancing reproduces the stream
/// (a re-seed, or more than kMaxJournalRngDelta draws).
struct JournalRng {
  bool full = true;
  /// Meaningful when `full`.
  RngState state;
  /// Meaningful when `!full`: raw draws to advance, then the spare.
  uint32_t draws = 0;
  bool has_spare = false;
  double spare = 0.0;
};

/// Longest draw delta the writer probes for before falling back to the
/// full state. Serving steps consume a handful of draws (one categorical
/// sample plus occasional term-sampling rejections), so 64 is generous.
inline constexpr uint32_t kMaxJournalRngDelta = 64;

/// Computes the journaled form of a stream that moved `before` -> `after`
/// across one step: a draw-count delta when advancing `before` by at most
/// kMaxJournalRngDelta raw draws reproduces `after`'s words, the full
/// state otherwise. Always exact — the fallback makes unprovable cases
/// explicit rather than wrong.
JournalRng MakeJournalRng(const RngState& before, const RngState& after);

/// Materializes a journaled stream state on top of `current` (the
/// stream's state at the previous journal entry, which is exactly the
/// replaying session's live state, because replay consumes no
/// randomness).
RngState MaterializeJournalRng(const JournalRng& rng,
                               const RngState& current);

/// One session's entry in a tick's group-committed record, in serial-
/// commit (admission) order. Either a quarantine (the step never
/// committed; the session and its environment are gone) or a committed
/// step plus how the commit ended for the session.
struct JournalTickEntry {
  enum class Kind { kStep = 0, kQuarantine = 1 };
  /// How a kStep entry's serial commit ended for the session.
  enum End { kLive = 0, kCompleted = 1, kDeadlineRetired = 2 };

  Kind kind = Kind::kStep;
  uint64_t id = 0;
  ServedStep step;
  /// DegradeStage after the commit (including an escalation this tick).
  int stage_after = 0;
  int end = kLive;
  /// Post-commit RNG states: the env's term stream after the step (and
  /// the episode-boundary Reset, when one happened) and the acting stream
  /// after this tick's act — delta-encoded against the pre-step states
  /// (see JournalRng). Restored after replaying the recorded operation,
  /// which itself consumes no randomness.
  JournalRng env_rng;
  JournalRng act_rng;
};

/// One Tick's group commit: every live session's entry, appended as a
/// single record — one append per tick, not per session — whose flush is
/// shared with neighbouring records at the next durability barrier.
struct JournalTick {
  bool overloaded = false;
  std::vector<JournalTickEntry> entries;
};

/// Writer for a tick record's payload: entries are encoded straight into
/// strings — no JournalTick materialization, no operation/term copies —
/// and the result parses back through ReadJournal as a JournalTick. A step
/// entry is encoded apart by EncodeStep (the serving tick does that for
/// every session at once, in its parallel step) and appended in admission
/// order by the serial commit. The buffers are reusable across ticks
/// (Clear keeps the capacity).
class JournalTickBuilder {
 public:
  void Clear() {
    body_.clear();
    entries_ = 0;
  }
  size_t entries() const { return entries_; }

  void AddQuarantine(uint64_t id);
  /// Encodes one step entry into `out`, replacing its contents. Touches
  /// nothing else, so distinct strings may be encoded concurrently.
  static void EncodeStep(uint64_t id, int end, int stage_after,
                         const JournalRng& env, const JournalRng& act,
                         const ServedStep& step, std::string* out);
  /// Appends an entry EncodeStep produced.
  void AddEncodedStep(const std::string& entry) {
    body_ += entry;
    ++entries_;
  }
  /// The encoded entries. The full tick payload is the
  /// "<overloaded> <count>\n" header followed by these bytes;
  /// SessionJournal::AppendTick frames and appends it without ever
  /// concatenating the two.
  const std::string& body() const { return body_; }

 private:
  std::string body_;
  size_t entries_ = 0;
};

/// Full session-manager state at a compaction point. Sessions appear in
/// admission order with their complete traces; the environment state is
/// not serialized — it is rebuilt by replaying the current episode's
/// trailing `episode_steps` operations after a Reset, then restoring the
/// recorded RNG states.
struct JournalSessionState {
  uint64_t id = 0;
  uint64_t seed = 0;
  int max_steps = 0;
  bool greedy = false;
  uint32_t gen = 0;
  int steps_done = 0;
  int stage = 0;
  int degraded_steps = 0;
  /// Trailing trace entries belonging to the in-progress episode.
  int episode_steps = 0;
  double total_reward = 0.0;
  RngState env_rng;
  RngState act_rng;
  std::vector<ServedStep> trace;
};

struct JournalSnapshot {
  uint64_t next_id = 1;
  int64_t steps_served = 0;
  bool overloaded = false;
  /// ServeStats flattened in the manager's canonical field order (the
  /// journal stays decoupled from the struct's layout).
  std::vector<int64_t> stats;
  /// Policy-snapshot path per generation; index 0 is the constructor
  /// snapshot (path unknown, stored empty).
  std::vector<std::string> generation_paths{std::string()};
  uint32_t current_gen = 0;
  /// Sequence number of the NotebookStore sidecar persisted alongside
  /// this snapshot (JournalSidecarPath), -1 when no store was configured.
  int64_t notebook_seq = -1;
  std::vector<JournalSessionState> sessions;
};

/// A parsed non-snapshot record, in file order.
struct JournalRecord {
  enum class Kind { kAdmit, kReload, kTick, kStop };
  Kind kind = Kind::kAdmit;
  JournalAdmit admit;
  JournalReload reload;
  JournalTick tick;
  /// Hard-stopped session ids in retirement (admission) order.
  std::vector<uint64_t> stop_ids;
};

/// Everything a journal file yields under prefix semantics.
struct JournalContents {
  /// The file is shorter than (a prefix of) the header line — a crash
  /// tore the very first append. Nothing to recover, but not an error.
  bool header_torn = false;
  bool has_meta = false;
  JournalMeta meta;
  /// A `snap` record frame was present...
  bool has_snapshot = false;
  /// ...and its payload decoded cleanly. When false the caller must fall
  /// back to `<path>.prev` for the base state; `records` still holds the
  /// decodable records *after* the corrupt snapshot.
  bool snapshot_valid = false;
  JournalSnapshot snapshot;
  std::vector<JournalRecord> records;
  /// False when a torn or corrupt suffix was dropped (prefix semantics).
  bool clean_tail = true;
};

/// Parses `path` to the longest valid prefix. Returns an error only when
/// the file cannot be read at all or its header identifies a different
/// file type entirely; torn/corrupt suffixes are reported via the flags.
Result<JournalContents> ReadJournal(const std::string& path);

/// Path of the NotebookStore sidecar persisted with compaction `seq`.
std::string JournalSidecarPath(const std::string& journal_path, int64_t seq);

/// The append-side writer. Not thread-safe (the SessionManager appends
/// from its single scheduler thread).
class SessionJournal {
 public:
  explicit SessionJournal(std::string path);

  const std::string& path() const { return path_; }
  /// Bytes appended since the last Reset — the auto-compaction trigger.
  int64_t appended_bytes() const { return appended_bytes_; }
  /// Size of the snap record the last Reset wrote (0 before the first
  /// Reset). Auto-compaction scales its threshold by this so that a large
  /// live set — whose snapshot is itself expensive to re-encode — is not
  /// compacted after a few ticks' worth of appends.
  int64_t snapshot_bytes() const { return snapshot_bytes_; }

  /// Writes a fresh compacted journal (header + meta + snap) atomically,
  /// first preserving any existing journal as `<path>.prev` — the
  /// fallback for a corrupt compaction snapshot. Serves both the initial
  /// start and every later compaction.
  Status Reset(const JournalMeta& meta, const JournalSnapshot& snapshot);

  /// Appends write the framed record into the kernel but do NOT flush it;
  /// durability is bought at the next Sync. In particular AppendTick is
  /// the group commit: ONE appended record for the whole tick and no
  /// fsync at all — consecutive ticks share the next barrier's single
  /// fdatasync. A system crash before that barrier tears the unsynced
  /// suffix, which recovery already tolerates (and, the runtime being
  /// bit-deterministic, re-executes to the same bytes). The manager
  /// places the barriers: after externally acknowledged transitions
  /// (reload, hard stop) and before completed outcomes become visible
  /// through TakeCompleted. Admissions deliberately ride the next
  /// barrier — prefix semantics guarantee no tick record can outlive a
  /// lost admit, so a crash before the barrier forgets the admission
  /// cleanly.
  Status AppendAdmit(const JournalAdmit& admit);
  Status AppendReload(const JournalReload& reload);
  /// The tick's entries as a JournalTickBuilder encoded them during the
  /// serial commit; the builder's bytes are not copied (see Append).
  Status AppendTick(const JournalTickBuilder& builder, bool overloaded);
  Status AppendStop(const std::vector<uint64_t>& ids);

  /// True when appended records are not yet durable (a Sync would flush).
  bool dirty() const { return appender_.dirty(); }
  /// The durability barrier: one fdatasync covering every record appended
  /// since the last Sync. No-op when clean.
  Status Sync();

 private:
  /// Appends one record whose payload is `a` followed by `b`: the frame
  /// line, both pieces and the closing newline reach the kernel as one
  /// gather write, with the CRC streamed over the pieces, so a payload is
  /// never copied into a contiguous record first.
  Status Append(const char* type, std::string_view a,
                std::string_view b = {});

  std::string path_;
  int64_t appended_bytes_ = 0;
  int64_t snapshot_bytes_ = 0;
  /// Held open across appends; closed by Reset, whose rename replaces the
  /// inode underneath it.
  DurableAppender appender_;
};

}  // namespace atena

#endif  // ATENA_SERVE_JOURNAL_H_
