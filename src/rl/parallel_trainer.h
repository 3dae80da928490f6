#ifndef ATENA_RL_PARALLEL_TRAINER_H_
#define ATENA_RL_PARALLEL_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "rl/checkpoint.h"
#include "rl/rollout.h"
#include "rl/trainer.h"

namespace atena {

/// The PPO/A2C trainer — the substrate's equivalent of the paper's A3C
/// training (§6.1): it collects fixed-length rollouts, computes GAE(λ)
/// advantages and runs several clipped-surrogate epochs per rollout over
/// the shared RolloutBuffer/PpoUpdater machinery (rl/rollout.h). Several
/// environment instances over the same dataset (different exploration
/// seeds) advance in lockstep, and every policy update learns from the
/// interleaved experience of all actors. Unlike true A3C the updates are
/// synchronous (DESIGN.md substitution #2), which keeps runs
/// deterministic.
///
/// Each lockstep tick issues exactly one batched Policy::ActBatch over all
/// actors' observations — one network forward per tick regardless of the
/// actor count — and then steps every actor's environment (FILTER/GROUP
/// execution, display diffing, compound reward) concurrently on a
/// persistent worker pool (TrainerOptions::num_threads, DESIGN.md §9).
/// Training output is bit-identical at any thread count: each actor owns
/// its environment and Rng stream, step outcomes land in index-addressed
/// slots, and the commit into the RolloutBuffer — with every floating-point
/// reduction (episode rewards, best-episode tracking, reward windows) —
/// runs serially in fixed actor order. A 1-actor instance is the
/// single-env trainer; its training output is bit-identical to the
/// historical per-step implementation.
///
/// All environments must expose identical observation and action spaces
/// (same dataset/config); each should carry its own seed, and each must
/// have its own RewardSignal instance (a shared stateful signal would be
/// stepped concurrently). The display cache is shared across actors — it
/// is internally thread-safe and a hit is bit-identical to a recompute.
class ParallelPpoTrainer {
 public:
  ParallelPpoTrainer(std::vector<EdaEnvironment*> envs, Policy* policy,
                     TrainerOptions options);

  void SetProgressCallback(std::function<void(const CurvePoint&)> callback) {
    progress_ = std::move(callback);
  }

  /// The resolved stepping concurrency (options.num_threads with 0 = auto,
  /// clamped to the actor count).
  int num_threads() const { return pool_->num_threads(); }

  TrainingResult Train();

 private:
  /// Per-actor in-flight episode state.
  struct ActorState {
    std::vector<double> observation;
    double episode_reward = 0.0;
    std::vector<EdaOperation> episode_ops;
  };

  /// Builds the full ATENA-CKPT v3 snapshot of the current trainer state.
  /// Valid only at update boundaries (the rollout buffer must be empty).
  TrainingCheckpoint BuildCheckpoint(const std::vector<ActorState>& actors,
                                     int steps_done, int updates_done) const;

  /// BuildCheckpoint plus a copy of the live network weights into
  /// `param_values` — the in-memory last-good snapshot the training guard
  /// rolls back to (a disk checkpoint reads live weights at save time, so
  /// the plain snapshot alone cannot undo a poisoned update).
  TrainingCheckpoint BuildGuardSnapshot(const std::vector<ActorState>& actors,
                                        int steps_done,
                                        int updates_done) const;

  /// Commits a fully validated snapshot into the trainer, policy, optimizer
  /// and environments (replaying each actor's in-flight episode, which
  /// consumes no randomness, then restoring the env Rng streams). Copies —
  /// never moves — from `ckpt`, so the guard can roll back to the same
  /// snapshot repeatedly. `ckpt.param_values` must be populated.
  void ApplyCheckpoint(const TrainingCheckpoint& ckpt,
                       std::vector<ActorState>* actors, int* steps_done,
                       int* updates_done);

  /// Durably writes `ckpt` (rotating `<path>` + `.prev`). Failures are
  /// logged as warnings — a broken disk should not kill hours of training
  /// that may still finish in memory.
  void WriteCheckpoint(const TrainingCheckpoint& ckpt) const;

  /// Restores the newest readable snapshot (falling back to `.prev` with a
  /// logged warning) into the trainer, policy, optimizer and environments.
  /// Environments are rebuilt by replaying each actor's in-flight episode
  /// operations (which consumes no randomness) and then restoring the env
  /// Rng streams. Returns false — leaving everything in its fresh-start
  /// state — when no snapshot exists or none can be applied.
  bool TryResumeFromCheckpoint(std::vector<ActorState>* actors,
                               int* steps_done, int* updates_done);

  std::vector<EdaEnvironment*> envs_;
  Policy* policy_;
  TrainerOptions options_;
  Rng rng_;
  RolloutBuffer buffer_;
  PpoUpdater updater_;
  /// Anomaly watchdog (DESIGN.md §10); null unless guardrails are enabled.
  /// Runs serially after each update, so it never affects bit-identity
  /// across thread counts.
  std::unique_ptr<TrainingGuard> guard_;
  std::function<void(const CurvePoint&)> progress_;

  /// Steps the actors' environments. A one-thread pool has no workers and
  /// runs them inline in actor order.
  std::unique_ptr<ThreadPool> pool_;

  TrainingResult result_;
  std::vector<double> recent_episode_rewards_;
};

}  // namespace atena

#endif  // ATENA_RL_PARALLEL_TRAINER_H_
