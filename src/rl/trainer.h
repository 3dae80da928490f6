#ifndef ATENA_RL_TRAINER_H_
#define ATENA_RL_TRAINER_H_

#include <string>
#include <vector>

#include "eda/environment.h"
#include "rl/guardrails.h"
#include "rl/policy.h"

namespace atena {

/// Hyper-parameters of the synchronous advantage actor-critic trainer with
/// PPO clipping (the paper trains with A3C enhanced with PPO, §6.1; our
/// substrate is synchronous — see DESIGN.md substitution #2).
struct TrainerOptions {
  int total_steps = 12000;
  int rollout_length = 192;   // environment steps per policy update
  int minibatch_size = 64;
  int epochs_per_update = 4;
  double gamma = 0.99;
  double gae_lambda = 0.95;
  double clip_epsilon = 0.2;
  /// Entropy-regularization bonus (paper §5) keeping the policy from
  /// premature convergence.
  double entropy_coef = 0.02;
  double value_coef = 0.5;
  double learning_rate = 3e-3;
  double max_grad_norm = 5.0;
  /// Episodes rolled out with the final policy after training; the best of
  /// them competes with the best training episode for notebook extraction.
  /// With scaled-down budgets the converged policy's episodes are far more
  /// representative than lucky exploration noise from early training.
  int final_eval_episodes = 16;
  uint64_t seed = 31337;

  /// Worker threads for environment stepping in ParallelPpoTrainer
  /// (DESIGN.md §9). 0 = auto: one thread per actor, capped at the hardware
  /// concurrency. Explicit values are clamped to [1, actor count] — more
  /// threads than actors can never be used; they may exceed the core count
  /// (useful for interleaving tests on small machines). The thread count
  /// NEVER changes training output: stepping results are committed in fixed
  /// actor order and every floating-point reduction runs serially, so any
  /// value here (including across a checkpoint resume) is bit-identical to
  /// num_threads = 1.
  int num_threads = 0;

  /// Durable crash-safe checkpointing (rl/checkpoint.h, DESIGN.md §8).
  /// Empty disables. When set, Train() writes rotating `<path>` +
  /// `<path>.prev` ATENA-CKPT v3 snapshots at update boundaries and on
  /// cooperative interruption (RequestTrainingStop), so a crash, OOM-kill
  /// or Ctrl-C loses at most `checkpoint_every_updates` updates of work.
  std::string checkpoint_path;
  /// Snapshot cadence in policy updates; values < 1 checkpoint only on
  /// interruption.
  int checkpoint_every_updates = 1;
  /// When true (and checkpoint_path is set), Train() first restores the
  /// newest readable snapshot — falling back to `.prev` with a logged
  /// warning when the primary is truncated or corrupt — and continues
  /// bit-identically to the run that wrote it: same learning curve, same
  /// TrainingResult as if it had never been interrupted. Missing
  /// checkpoints (or ones for a different env/policy configuration) log a
  /// warning and start fresh.
  bool resume = false;

  /// Training guardrails (rl/guardrails.h, DESIGN.md §10): anomaly
  /// detection with automatic rollback-to-last-good, learning-rate backoff
  /// and a bounded retry budget. Off by default (guardrails.enabled);
  /// when enabled and no anomaly fires, training output stays
  /// byte-identical to guardrails-off.
  GuardrailOptions guardrails;
};

/// Cooperative interruption for long training runs. RequestTrainingStop is
/// async-signal-safe (it only sets a sig_atomic_t flag), so examples
/// install it directly as a SIGINT handler. Trainers poll the flag between
/// lockstep ticks and at update boundaries, so stop latency is bounded by
/// one tick (one step per actor), not one full rollout. On stop they flush
/// a final checkpoint (when configured) capturing the last update
/// boundary, mark the TrainingResult as interrupted, and return the
/// partial result; resuming from that checkpoint continues bit-identically.
/// Train() clears the flag when it starts.
void RequestTrainingStop();
bool TrainingStopRequested();
void ClearTrainingStopRequest();

/// One (step, mean recent episode reward) sample of the learning curve —
/// what Figure 5 plots.
struct CurvePoint {
  int step = 0;
  double mean_episode_reward = 0.0;
};

struct TrainingResult {
  std::vector<CurvePoint> curve;
  /// The operation sequence of the best episode seen during training —
  /// ATENA extracts the generated notebook from it (paper §3).
  std::vector<EdaOperation> best_episode_ops;
  double best_episode_reward = 0.0;
  double final_mean_reward = 0.0;
  int episodes = 0;
  /// True when training stopped early at an update boundary because of
  /// RequestTrainingStop(). The result holds the partial progress (no final
  /// greedy evaluation pass is run); resuming from the flushed checkpoint
  /// completes the run bit-identically.
  bool interrupted = false;
  /// OK unless the training guard exhausted its retry budget, in which
  /// case this carries the kResourceExhausted status naming the trigger
  /// (the weights are still rolled back to the last good update, and no
  /// final evaluation pass is run).
  Status guard_status;
  /// Guardrail accounting for the run (zeroes when guardrails are off).
  GuardrailSummary guard;
};

}  // namespace atena

#endif  // ATENA_RL_TRAINER_H_
