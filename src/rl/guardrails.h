#ifndef ATENA_RL_GUARDRAILS_H_
#define ATENA_RL_GUARDRAILS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/status.h"

namespace atena {

/// Training guardrails (DESIGN.md §10): a serial post-update watchdog that
/// turns numerically fragile PPO runs into self-healing ones. After every
/// policy update the trainer hands the guard the update's statistics; on an
/// anomaly the trainer rolls itself back to the last-good update boundary
/// (the in-memory ATENA-CKPT snapshot it already maintains), backs off the
/// learning rate, reseeds the rollout from the checkpointed Rng streams and
/// retries — under a bounded retry budget whose exhaustion surfaces as a
/// structured Status instead of hours of silently poisoned weights.
///
/// Everything here is deterministic: the guard consumes no randomness, its
/// checks read only the serial per-update statistics (bit-identical at any
/// TrainerOptions::num_threads), and its persistent state travels inside
/// the training checkpoint so a crash mid-recovery resumes bit-identically.
/// With `enabled == false` (the default) the trainer never constructs a
/// guard and training output is byte-identical to builds without one.

/// Tunable thresholds of the anomaly detectors plus the recovery policy.
struct GuardrailOptions {
  /// Master escape hatch. Off by default: guardrails are opt-in, and a
  /// disabled guard leaves the training loop (and its checkpoint bytes)
  /// untouched.
  bool enabled = false;

  /// Exploding-gradient detector: the pre-clip global gradient norm of any
  /// minibatch triggers when it exceeds `grad_norm_factor` times the
  /// rolling median of the last `grad_norm_window` clean updates (armed
  /// only once the window is full), or `grad_norm_abs_max` outright.
  double grad_norm_factor = 10.0;
  int grad_norm_window = 16;
  double grad_norm_abs_max = 1e9;

  /// Entropy-collapse detector: mean policy entropy (nats) below this
  /// floor means the softmax heads have saturated — updates from such a
  /// policy are degenerate and rarely recover on their own.
  double entropy_floor = 1e-3;

  /// Reward-divergence detector: the recent mean episode reward falling
  /// more than max(reward_drop_abs, reward_drop_frac * |median|) below the
  /// rolling median of the last `reward_window` clean updates, for
  /// `reward_patience` consecutive updates, triggers. Armed only once the
  /// window is full, so early-training noise cannot fire it.
  double reward_drop_abs = 1.0;
  double reward_drop_frac = 1.0;
  int reward_window = 16;
  int reward_patience = 3;

  /// Recovery policy: every rollback consumes one retry and multiplies the
  /// learning-rate scale by `lr_backoff`; when `max_retries` rollbacks have
  /// been spent, the next anomaly aborts the run with a kResourceExhausted
  /// Status (the weights are still rolled back to the last good snapshot).
  int max_retries = 3;
  double lr_backoff = 0.5;

  /// JSONL health log (common/event_log.h; one "guard" event per anomaly,
  /// see DESIGN.md §10 for the fields). A fresh run replaces an older log at
  /// its first event; a resumed run continues it. Empty disables logging.
  std::string health_log_path;
};

/// What fired. kNone means the update is clean.
enum class GuardTrigger {
  kNone = 0,
  kNonFiniteLoss,      // NaN/inf policy, value or entropy loss
  kNonFiniteGradient,  // NaN/inf gradient value or pre-clip norm
  kExplodingGradient,  // finite norm over the rolling-median threshold
  kEntropyCollapse,    // mean policy entropy under the floor
  kRewardDivergence,   // sustained drop versus the recent reward window
};
const char* GuardTriggerName(GuardTrigger trigger);

/// Per-update training statistics, produced serially by PpoUpdater::Update
/// regardless of thread count. Pure observations: computing them never
/// perturbs gradients, weights or any Rng stream.
struct UpdateStats {
  /// Mean clipped-surrogate policy loss over every (epoch, sample) pair.
  double policy_loss = 0.0;
  /// Mean squared value-head error over every (epoch, sample) pair.
  double value_loss = 0.0;
  /// Mean policy entropy (nats) over every (epoch, sample) pair.
  double entropy = 0.0;
  /// Largest pre-clip global gradient norm over the update's minibatches
  /// (non-finite when any minibatch produced a non-finite norm).
  double grad_norm_max = 0.0;
  /// Total gradient values zeroed by ClipGradientsByNorm because they were
  /// NaN/inf — distinguishes "clipped" (scaled, fine) from "zeroed-NaN".
  int64_t nonfinite_grad_values = 0;
  /// Minibatch optimizer steps taken (0 for an empty batch).
  int minibatches = 0;
};

/// Corruption kinds injectable into PpoUpdater for fault-injection tests.
enum class GuardFault {
  kNone = 0,
  kNanLoss,          // NaN written into the reported policy loss
  kInfGradient,      // inf written into one gradient slot pre-clip
  kEntropyCollapse,  // reported mean entropy forced to zero
};

/// The guard state that must survive a crash for recovery to resume
/// bit-identically: how much of the retry budget is spent, the accumulated
/// learning-rate scale, and which update the trainer last validated.
/// Persisted inside ATENA-CKPT (rl/checkpoint.h) whenever any guard event
/// has occurred; a checkpoint from an anomaly-free run carries no guard
/// section and stays byte-identical to a guardrails-off checkpoint.
struct GuardCheckpointState {
  int retries_used = 0;
  double lr_scale = 1.0;
  int last_good_update = 0;
  int64_t events_logged = 0;

  /// True when no guard event has ever occurred (last_good_update is
  /// deliberately ignored: it tracks ordinary progress, not anomalies, and
  /// is recoverable from the checkpoint's own update index).
  bool IsDefault() const {
    return retries_used == 0 && lr_scale == 1.0 && events_logged == 0;
  }
};

/// End-of-run guardrail accounting, surfaced on TrainingResult so callers
/// (and the examples' health summaries) need not re-parse the health log.
struct GuardrailSummary {
  int64_t events = 0;
  int rollbacks = 0;
  double lr_scale = 1.0;
};

/// The watchdog itself. The trainer owns one (when enabled), calls Check
/// after every update, and on a trigger calls OnAnomaly — which decides
/// between "roll back and retry" (OK status; the caller restores its
/// last-good snapshot and applies lr_scale()) and "budget exhausted"
/// (kResourceExhausted; the caller still restores the snapshot, then stops
/// and surfaces the status). All methods are single-threaded by design:
/// the guard runs on the trainer's calling thread, after the serial
/// commit, so bit-identity at any num_threads is free.
class TrainingGuard {
 public:
  explicit TrainingGuard(GuardrailOptions options);

  /// Evaluates one completed update. `update_index` is the 0-based index
  /// of the update under test; `mean_episode_reward` is the trainer's
  /// recent-window mean (ignored until `has_reward`). Clean updates feed
  /// the rolling windows; anomalous ones never do.
  GuardTrigger Check(int update_index, const UpdateStats& stats,
                     double mean_episode_reward, bool has_reward);

  /// Marks `update_index` (1-based count, i.e. updates completed) as the
  /// new last-good boundary after a clean update.
  void NoteGoodUpdate(int update_index);

  /// Records the anomaly in the health log and charges the retry budget.
  /// Returns OK when a retry is granted (one retry consumed, lr_scale
  /// multiplied by the backoff, detector windows reset so the retried
  /// stretch is judged fresh — also what a crash-resumed run would see);
  /// returns kResourceExhausted when the budget was already spent.
  Status OnAnomaly(GuardTrigger trigger, int update_index,
                   const UpdateStats& stats, double mean_episode_reward);

  /// The accumulated learning-rate scale (product of backoffs); the caller
  /// applies it to the optimizer after every rollback and on resume.
  double lr_scale() const { return state_.lr_scale; }

  const GuardCheckpointState& checkpoint_state() const { return state_; }

  /// Restores state captured by checkpoint_state(). `resumed_update` is
  /// the checkpoint's update index, used as the last-good boundary when
  /// the persisted state predates any guard event. Once the run had logged
  /// events, continues the existing health log (trimming a torn final
  /// line) so post-resume events append rather than clobber.
  void RestoreCheckpointState(const GuardCheckpointState& state,
                              int resumed_update);

  GuardrailSummary summary() const;

 private:
  /// Counts the event and writes it to the health log (when configured).
  void AppendEvent(GuardTrigger trigger, int update_index,
                   const UpdateStats& stats, double mean_episode_reward,
                   const char* action);

  GuardrailOptions options_;
  GuardCheckpointState state_;

  /// Rolling windows over clean updates only; cleared on every rollback so
  /// the recovered stretch (and a crash-resumed one) is judged identically.
  std::vector<double> grad_norms_;
  std::vector<double> rewards_;
  int reward_strikes_ = 0;

  EventLog log_;
};

}  // namespace atena

#endif  // ATENA_RL_GUARDRAILS_H_
