#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace atena {

namespace {

/// A spin-wait hint to the core (lets a hyperthread sibling run).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::chrono::nanoseconds SpinBudgetFor(int num_threads) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (num_threads <= 1 || hw == 0 || num_threads > static_cast<int>(hw)) {
    return std::chrono::nanoseconds::zero();
  }
  return ThreadPool::kSpinBudget;
}

bool IsOpenJob(uint64_t generation, uint64_t joined) {
  return (generation & 1) != 0 && generation != joined;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : spin_budget_(SpinBudgetFor(num_threads)) {
  const int workers = std::max(0, num_threads - 1);
  workers_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true);
  // Taking the mutex orders the store before any parked worker's predicate
  // check: a worker between checking and blocking still holds it.
  { std::lock_guard<std::mutex> lock(mutex_); }
  job_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::DefaultThreads(int tasks) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int cores = hw == 0 ? 1 : static_cast<int>(hw);
  return std::max(1, std::min(tasks, cores));
}

template <typename Ready>
bool ThreadPool::SpinUntil(const Ready& ready) const {
  if (spin_budget_.count() == 0) return ready();
  const auto deadline = std::chrono::steady_clock::now() + spin_budget_;
  for (int i = 1;; ++i) {
    if (ready()) return true;
    CpuRelax();
    // Every 64th poll (a few µs) checks the clock and yields: a spinner
    // that shares its core with a thread that has work — the scheduler
    // does co-locate them — must not hold that thread off for the whole
    // budget.
    if (i % 64 == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return ready();
      std::this_thread::yield();
    }
  }
}

void ThreadPool::RunJobShare() {
  // job_fn_ and job_size_ stay fixed while this thread is active (or, on
  // the caller, until ParallelFor returns).
  const std::function<void(int)>& fn = *job_fn_;
  const int size = job_size_;
  for (int index = next_index_.fetch_add(1, std::memory_order_relaxed);
       index < size;
       index = next_index_.fetch_add(1, std::memory_order_relaxed)) {
    fn(index);
    // Release publishes the task's writes to the caller's acquire load.
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      { std::lock_guard<std::mutex> lock(mutex_); }
      job_done_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t joined = 0;
  auto ready = [&] {
    return shutdown_.load() || IsOpenJob(generation_.load(), joined);
  };
  while (true) {
    if (!SpinUntil(ready)) {
      std::unique_lock<std::mutex> lock(mutex_);
      // Announce before the predicate check: a ParallelFor that publishes
      // after this sees parked_ > 0 and notifies; one that published
      // before is seen by the check (both sides are seq_cst).
      parked_.fetch_add(1);
      job_ready_.wait(lock, ready);
      parked_.fetch_sub(1);
    }
    if (shutdown_.load()) return;
    // Join, then re-read the generation: the job seen above may have
    // closed (and the next one opened) in between.
    active_.fetch_add(1);
    const uint64_t generation = generation_.load();
    if (IsOpenJob(generation, joined)) {
      joined = generation;
      RunJobShare();
    }
    active_.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  const uint64_t closed = generation_.load(std::memory_order_relaxed);
  ATENA_CHECK((closed & 1) == 0) << "reentrant ParallelFor on one pool";
  // Workers that joined the previous job may still be reading its fields
  // on their way out; the wait is a few instructions unless one was
  // preempted, so it yields rather than parks. This load, the closing
  // store below and a worker's join and generation re-read are all
  // seq_cst: a worker that joins after this load reads 0 must then see
  // the closed generation (or the next open one), never the stale job.
  while (active_.load() != 0) std::this_thread::yield();
  job_fn_ = &fn;
  job_size_ = n;
  next_index_.store(0, std::memory_order_relaxed);
  remaining_.store(n, std::memory_order_relaxed);
  const uint64_t open = closed + 1;
  generation_.store(open);
  if (parked_.load() > 0) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    job_ready_.notify_all();
  }
  // The caller is one of the pool's threads: it claims indices alongside
  // the workers, then waits out the stragglers.
  RunJobShare();
  auto done = [&] {
    return remaining_.load(std::memory_order_acquire) == 0;
  };
  if (!SpinUntil(done)) {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, done);
  }
  // Late joiners of this generation find every index claimed; the next
  // ParallelFor waits for them to leave before it rewrites the job.
  generation_.store(open + 1);
}

}  // namespace atena
