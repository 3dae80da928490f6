// In-memory span recorder for the traced benchmark run. Spans are recorded
// only by the benchmark's own code, around its calls into each layer of the
// product (and from the forwarding decorators it installs at the public
// extension points); nothing inside the library is instrumented.
//
// Every thread appends to its own buffer, so recording takes no lock after a
// thread's first span. A span's parent is the innermost open span on the
// same thread or, for worker threads with nothing open, the scheduler's
// current "ambient" span (the tick or rollout that fanned the work out).
// Spans stay in memory until the run ends; WriteCsv dumps them and the
// per-layer table is derived from the same records.
#ifndef ATENA_PERFBENCH_TRACE_H_
#define ATENA_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Layer boundaries the benchmark can see from outside the library.
enum class Layer : uint16_t {
  kRepeat = 0,        // one timed repeat (a training run or a serving round)
  kDataMake,          // MakeDataset
  kCoherencyBuild,    // MakeStandardReward: LF label model + calibration
  kTrainRun,          // ParallelPpoTrainer::Train for the served snapshot
  kRlRollout,         // between update boundaries: acting + env stepping
  kRlUpdate,          // first ForwardBatch of an update to its boundary
  kNnActBatch,        // Policy::ActBatch
  kNnForward,         // Policy::ForwardBatch
  kNnBackward,        // Policy::BackwardBatch
  kNnAct,             // Policy::Act / ActGreedy (final evaluation)
  kReward,            // RewardSignal::Compute
  kReplay,            // ReplayOperations of the published notebook
  kEvalScore,         // ComputeAedaScores
  kNotebookRender,    // RenderMarkdown
  kServeAdmit,        // SessionManager::Admit
  kServeTick,         // SessionManager::Tick
  kServeDeliver,      // SessionManager::TakeCompleted (journal barrier)
  kIndexQuery,        // SessionManager::QuerySimilarNotebooks
  kCount,
};
const char* LayerName(Layer layer);

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  Layer layer = Layer::kRepeat;
  uint16_t thread = 0;
  int64_t start = 0;  // steady_clock nanoseconds
  int64_t end = 0;
};

/// Owns the spans of one traced run. At most one tracer is active at a
/// time; while none is, ScopedSpan costs one relaxed load.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Makes this tracer (or none, with nullptr) the one spans go to. Call
  /// only while no other thread is recording.
  static void Activate(Tracer* tracer);
  static Tracer* Active() { return active_.load(std::memory_order_acquire); }

  /// Opens a span on the calling thread; returns its id.
  uint32_t Open();
  /// Records span `id` as finished and, when it is the innermost open span
  /// of the calling thread, closes it. Also records intervals whose bounds
  /// are only known afterwards (rollouts, updates) under a NextId() id.
  void Close(uint32_t id, Layer layer, int64_t start, int64_t end);

  /// Parent for worker-thread spans that have no open span of their own.
  void SetAmbient(uint32_t id) { ambient_.store(id, std::memory_order_release); }
  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Every span recorded so far, merged across threads (call when no
  /// thread is recording).
  std::vector<Span> Collect() const;
  /// Writes Collect() as CSV: id,parent,layer,thread,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  struct ThreadBuffer {
    uint16_t thread = 0;
    std::vector<Span> spans;
    std::vector<uint32_t> open;  // ids of open spans, innermost last
  };
  ThreadBuffer* Buffer();

  static std::atomic<Tracer*> active_;
  const uint64_t generation_;
  std::atomic<uint32_t> next_id_{1};
  std::atomic<uint32_t> ambient_{0};
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span on the active tracer; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }
  /// Ends the span before the scope does; later calls do nothing.
  void Close();

 private:
  Tracer* tracer_;
  Layer layer_;
  int64_t start_ = 0;
  uint32_t id_ = 0;
};

/// Queries over collected spans, used to build the per-layer table.
class SpanTable {
 public:
  explicit SpanTable(std::vector<Span> spans);

  /// Number of spans of `layer`.
  int64_t Count(Layer layer) const;
  /// Summed duration of `layer`'s spans, in seconds (busy time: parallel
  /// spans on different threads add up).
  double BusySeconds(Layer layer) const;
  /// Durations of `layer`'s spans, in seconds.
  std::vector<double> Durations(Layer layer) const;
  /// Summed over every span of `parent_layer`: its duration minus the part
  /// covered by spans of `child_layers` (its self time), in seconds.
  double SelfSeconds(Layer parent_layer,
                     const std::vector<Layer>& child_layers) const;

 private:
  /// Wall-clock seconds inside [start, end) covered by at least one span
  /// of the given layers (the union of their intervals).
  double CoveredSeconds(const std::vector<Layer>& layers, int64_t start,
                        int64_t end) const;

  std::vector<Span> spans_;
  std::vector<std::vector<size_t>> by_layer_;  // sorted by start
  std::vector<int64_t> max_duration_;          // per layer, nanoseconds
};

}  // namespace perfbench

#endif  // ATENA_PERFBENCH_TRACE_H_
