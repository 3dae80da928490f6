#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace atena {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  const int n = 137;  // deliberately not a multiple of the thread count
  std::vector<std::atomic<int>> calls(n);
  pool.ParallelFor(n, [&](int i) { calls[static_cast<size_t>(i)]++; });
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(calls[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineInIndexOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EmptyAndSingleTaskJobs) {
  ThreadPool pool(3);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(-4, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller — `calls` needs no synchronization.
  pool.ParallelFor(1, [&](int) { ++calls; });
  EXPECT_EQ(calls, 1);
}

// The determinism contract in practice: results written to index-addressed
// slots then reduced serially match a plain serial loop exactly, for many
// successive jobs of varying size on one pool (exercises the job
// generation/wakeup logic).
TEST(ThreadPoolTest, IndexAddressedSlotsMatchSerialLoop) {
  ThreadPool pool(4);
  for (int n : {1, 2, 3, 7, 64, 129}) {
    std::vector<double> parallel_out(static_cast<size_t>(n));
    std::vector<double> serial_out(static_cast<size_t>(n));
    auto task = [](int i) {
      double x = 1.0;
      for (int k = 0; k < 50; ++k) x = x * 1.0000001 + static_cast<double>(i);
      return x;
    };
    pool.ParallelFor(n, [&](int i) {
      parallel_out[static_cast<size_t>(i)] = task(i);
    });
    for (int i = 0; i < n; ++i) serial_out[static_cast<size_t>(i)] = task(i);
    // Serial-order reduction over slots is bit-identical either way.
    EXPECT_EQ(std::accumulate(parallel_out.begin(), parallel_out.end(), 0.0),
              std::accumulate(serial_out.begin(), serial_out.end(), 0.0))
        << "n = " << n;
  }
}

// More threads than tasks (and than cores): every task still runs exactly
// once and the pool survives repeated use. This is the shape trainer tests
// use on small CI machines.
TEST(ThreadPoolTest, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(3, [&](int i) { sum += i + 1; });
    EXPECT_EQ(sum.load(), 6);
  }
}

// The pool at full concurrency (spinning, when the host has cores to
// spare) and one thread past it (never spinning).
std::vector<int> PoolSizes() {
  const int cores = ThreadPool::DefaultThreads(1 << 20);
  return {std::max(2, cores), cores + 1};
}

// Holds each of `n` tasks until all `n` have started, so a job of that
// size completes only if `n` distinct threads run it at once — parked
// workers included. Gives up after a generous timeout so a pool that
// fails to wake its workers fails the test instead of hanging it.
class StartBarrier {
 public:
  explicit StartBarrier(int n) : n_(n) {}
  bool ArriveAndWait() {
    arrived_.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived_.load() < n_) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
};

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Many short jobs back to back — the serving tick's shape — with the
// index-addressed slots (plain ints: the pool itself must order each
// task's write before the caller's read) checked after every job.
TEST(ThreadPoolTest, BackToBackShortJobsFillEverySlot) {
  for (int threads : PoolSizes()) {
    ThreadPool pool(threads);
    std::vector<int> slots(67, -1);
    for (int job = 0; job < 2000; ++job) {
      const int n = 2 + job % 66;
      pool.ParallelFor(n, [&](int i) {
        slots[static_cast<size_t>(i)] = job * 100 + i;
      });
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(slots[static_cast<size_t>(i)], job * 100 + i)
            << threads << " threads, job " << job << ", index " << i;
      }
    }
  }
}

// Gaps longer than the spin budget park every worker; each following job
// needs all of them awake at once (StartBarrier), so it completes only if
// every parked worker wakes for it.
TEST(ThreadPoolTest, ParkedWorkersWakeForTheNextJob) {
  for (int threads : PoolSizes()) {
    ThreadPool pool(threads);
    for (int round = 0; round < 4; ++round) {
      std::this_thread::sleep_for(10 * ThreadPool::kSpinBudget);
      StartBarrier barrier(threads);
      std::vector<int> met(static_cast<size_t>(threads), 0);
      pool.ParallelFor(threads, [&](int i) {
        met[static_cast<size_t>(i)] = barrier.ArriveAndWait() ? 1 : 0;
      });
      for (int i = 0; i < threads; ++i) {
        EXPECT_EQ(met[static_cast<size_t>(i)], 1)
            << threads << " threads, round " << round << ", task " << i;
      }
    }
  }
}

// More threads than cores: idle workers park at once instead of spinning,
// so an idle pool burns no CPU (a spinning one would burn up to
// kSpinBudget per worker after every job). Each job needs every worker
// (StartBarrier), so every worker has just finished a task when the idle
// gap starts.
TEST(ThreadPoolTest, OversubscribedPoolNeverSpins) {
  const int threads = ThreadPool::DefaultThreads(1 << 20) + 1;
  ThreadPool pool(threads);
  EXPECT_FALSE(pool.spins());
  if (threads - 1 >= 2) {
    EXPECT_TRUE(ThreadPool(threads - 1).spins());
  }
  EXPECT_FALSE(ThreadPool(1).spins());
  double idle_cpu = 0.0;
  for (int round = 0; round < 5; ++round) {
    StartBarrier barrier(threads);
    std::atomic<int> met{0};
    pool.ParallelFor(threads, [&](int) {
      if (barrier.ArriveAndWait()) ++met;
    });
    ASSERT_EQ(met.load(), threads) << "round " << round;
    const double before = ProcessCpuSeconds();
    std::this_thread::sleep_for(20 * ThreadPool::kSpinBudget);
    idle_cpu += ProcessCpuSeconds() - before;
  }
  // After each job a spinning pool keeps at least one core busy for the
  // budget (its workers yield to each other when the scheduler stacks
  // them on one core), so five gaps would cost >= 5 budgets; a parked
  // pool costs ~0.
  const double spin_s =
      std::chrono::duration<double>(ThreadPool::kSpinBudget).count();
  EXPECT_LT(idle_cpu, 0.5 * spin_s * 5);
}

// The destructor must reach workers in both idle states: spinning right
// after a job, and parked after a gap longer than the spin budget.
TEST(ThreadPoolTest, DestroysWhileWorkersSpinOrPark) {
  for (int threads : PoolSizes()) {
    for (int round = 0; round < 20; ++round) {
      ThreadPool pool(threads);
      std::atomic<int> calls{0};
      pool.ParallelFor(threads * 3, [&](int) { ++calls; });
      EXPECT_EQ(calls.load(), threads * 3);
    }  // destroyed while the workers still spin
    for (int round = 0; round < 3; ++round) {
      ThreadPool pool(threads);
      std::atomic<int> calls{0};
      pool.ParallelFor(threads * 3, [&](int) { ++calls; });
      EXPECT_EQ(calls.load(), threads * 3);
      std::this_thread::sleep_for(10 * ThreadPool::kSpinBudget);
    }  // destroyed with every worker parked
  }
}

TEST(ThreadPoolTest, DefaultThreadsIsCappedAndPositive) {
  EXPECT_EQ(ThreadPool::DefaultThreads(0), 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(1), 1);
  const int for_eight = ThreadPool::DefaultThreads(8);
  EXPECT_GE(for_eight, 1);
  EXPECT_LE(for_eight, 8);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_LE(for_eight, static_cast<int>(hw));
  }
}

}  // namespace
}  // namespace atena
