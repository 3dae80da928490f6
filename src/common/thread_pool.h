#ifndef ATENA_COMMON_THREAD_POOL_H_
#define ATENA_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace atena {

/// A small persistent worker pool with a blocking parallel-for, built for
/// the trainer's lockstep env stepping and the serving tick (DESIGN.md §9).
///
/// Determinism contract: ParallelFor(n, fn) runs fn(0..n-1) exactly once
/// each and returns only when all have finished. Which thread runs which
/// index (and in what order) is scheduling-dependent, so callers must keep
/// tasks independent — each task may only write state owned by its index
/// (plus properly synchronized shared structures such as DisplayCache).
/// Outputs are gathered into index-addressed slots and any floating-point
/// reduction over them is performed by the caller afterwards, in index
/// order — which is what makes pool-driven results bit-identical to a
/// serial loop at any thread count.
///
/// Tasks must not throw: the pool runs fn on plain worker threads and an
/// escaping exception terminates the process (this codebase reports errors
/// through Status, never exceptions).
///
/// The calling thread participates in the work, so a pool constructed with
/// `num_threads` applies at most `num_threads` concurrent tasks while
/// holding only `num_threads - 1` OS threads.
///
/// Idle workers spin on the job generation for a fixed budget after each
/// job before they park on a condition variable, so back-to-back jobs (the
/// act and step phases of consecutive serving ticks) find them awake. A
/// pool with more threads than the hardware has cores never spins: there,
/// a spinning worker would only take a core from one that has work.
class ThreadPool {
 public:
  /// How long an idle worker spins after a job before it parks. On the
  /// 4-core virtualized development host a parked worker started its task
  /// 9–73 µs after the job was published (DESIGN.md §9), often after the
  /// caller had run every task itself; a spinning one, 0.7 µs. 1 ms
  /// outlasts the serial commit between two serving ticks (~0.1–0.2 ms),
  /// and an idle pool stops burning its cores 1 ms after its last job.
  static constexpr std::chrono::microseconds kSpinBudget{1000};

  /// Spawns `num_threads - 1` workers (clamped below at 0). A pool of one
  /// thread has no workers: ParallelFor degenerates to an inline loop on
  /// the caller.
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers, spinning or parked. Must not race an in-flight
  /// ParallelFor.
  ~ThreadPool();

  /// Total concurrency (workers + the participating caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Whether idle workers (and a caller waiting for stragglers) spin before
  /// they park: true unless the pool has no workers or more threads than
  /// std::thread::hardware_concurrency().
  bool spins() const { return spin_budget_.count() > 0; }

  /// Runs fn(0), ..., fn(n-1) across the pool and blocks until every call
  /// has returned. Indices are claimed dynamically (load-balanced); see the
  /// class comment for the determinism contract. Reentrant calls (fn itself
  /// calling ParallelFor on the same pool) are not supported.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// The default thread count for `tasks` parallel tasks: the task count
  /// capped at the hardware concurrency (and at least 1). Explicit user
  /// thread counts may exceed this — useful for tests that interleave more
  /// threads than cores — but the default never oversubscribes.
  static int DefaultThreads(int tasks);

 private:
  void WorkerLoop();
  /// Claims and runs indices of the current job until none is left.
  void RunJobShare();
  /// Polls `ready` for up to the spin budget; returns its last value.
  template <typename Ready>
  bool SpinUntil(const Ready& ready) const;

  /// 0 when the pool must not spin (see spins()).
  const std::chrono::nanoseconds spin_budget_;

  // Parking. Workers block on `job_ready_` once their spin budget runs
  // out; a caller waiting for stragglers blocks on `job_done_`.
  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  /// Workers blocked (or about to block) on `job_ready_`; a new job takes
  /// the mutex to notify only when this is non-zero.
  std::atomic<int> parked_{0};
  std::atomic<bool> shutdown_{false};

  /// Odd while a job is open, even once it has closed; each ParallelFor
  /// advances it by two. Workers compare it against the last job they
  /// joined to detect a fresh one.
  std::atomic<uint64_t> generation_{0};
  /// Workers between joining a job and leaving it. ParallelFor rewrites
  /// the job fields below only once this is 0, so a worker that wakes
  /// late can never run a stale job or claim an index of the next one: it
  /// either joins a job that is still open, or finds the generation closed
  /// and goes back to waiting.
  std::atomic<int> active_{0};

  // Current job: written by ParallelFor while no worker is active and
  // published by the odd generation store.
  const std::function<void(int)>* job_fn_ = nullptr;
  int job_size_ = 0;
  /// The one claim counter: each fetch_add hands out the next index.
  std::atomic<int> next_index_{0};
  /// Unfinished tasks; the final decrement signals `job_done_`.
  std::atomic<int> remaining_{0};

  std::vector<std::thread> workers_;
};

}  // namespace atena

#endif  // ATENA_COMMON_THREAD_POOL_H_
