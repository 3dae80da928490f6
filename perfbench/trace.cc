#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "measure.h"

namespace perfbench {

namespace {

std::atomic<uint64_t> g_generations{1};

struct ThreadSlot {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRepeat: return "bench.repeat";
    case Layer::kDataMake: return "data.make";
    case Layer::kCoherencyBuild: return "coherency.build";
    case Layer::kTrainRun: return "rl.train";
    case Layer::kRlRollout: return "rl.rollout";
    case Layer::kRlUpdate: return "rl.update";
    case Layer::kNnActBatch: return "nn.act_batch";
    case Layer::kNnForward: return "nn.forward_batch";
    case Layer::kNnBackward: return "nn.backward_batch";
    case Layer::kNnAct: return "nn.act";
    case Layer::kReward: return "reward.compute";
    case Layer::kReplay: return "eda.replay";
    case Layer::kEvalScore: return "eval.score";
    case Layer::kNotebookRender: return "notebook.render";
    case Layer::kServeAdmit: return "serve.admit";
    case Layer::kServeTick: return "serve.tick";
    case Layer::kServeDeliver: return "serve.deliver";
    case Layer::kIndexQuery: return "index.query";
    case Layer::kCount: break;
  }
  return "unknown";
}

std::atomic<Tracer*> Tracer::active_{nullptr};

Tracer::Tracer() : generation_(g_generations.fetch_add(1)) {}

Tracer::~Tracer() {
  Tracer* self = this;
  active_.compare_exchange_strong(self, nullptr);
}

void Tracer::Activate(Tracer* tracer) {
  active_.store(tracer, std::memory_order_release);
}

Tracer::ThreadBuffer* Tracer::Buffer() {
  if (t_slot.generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->thread = static_cast<uint16_t>(buffers_.size());
    buffer->spans.reserve(1 << 12);
    t_slot.generation = generation_;
    t_slot.buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<ThreadBuffer*>(t_slot.buffer);
}

uint32_t Tracer::Open() {
  ThreadBuffer* buffer = Buffer();
  const uint32_t id = NextId();
  buffer->open.push_back(id);
  return id;
}

void Tracer::Close(uint32_t id, Layer layer, int64_t start, int64_t end) {
  ThreadBuffer* buffer = Buffer();
  if (!buffer->open.empty() && buffer->open.back() == id) buffer->open.pop_back();
  const uint32_t parent = buffer->open.empty()
                              ? ambient_.load(std::memory_order_acquire)
                              : buffer->open.back();
  buffer->spans.push_back(
      Span{id, parent == id ? 0 : parent, layer, buffer->thread, start, end});
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  return all;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,parent,layer,thread,start_ns,end_ns\n");
  for (const Span& span : Collect()) {
    std::fprintf(out, "%u,%u,%s,%u,%lld,%lld\n", span.id, span.parent,
                 LayerName(span.layer), static_cast<unsigned>(span.thread),
                 static_cast<long long>(span.start),
                 static_cast<long long>(span.end));
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(Layer layer)
    : tracer_(Tracer::Active()), layer_(layer) {
  if (tracer_ == nullptr) return;
  start_ = NowNanos();
  id_ = tracer_->Open();
}

void ScopedSpan::Close() {
  if (tracer_ == nullptr) return;
  tracer_->Close(id_, layer_, start_, NowNanos());
  tracer_ = nullptr;
}

SpanTable::SpanTable(std::vector<Span> spans)
    : spans_(std::move(spans)),
      by_layer_(static_cast<size_t>(Layer::kCount)) {
  std::sort(spans_.begin(), spans_.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  max_duration_.assign(by_layer_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const size_t layer = static_cast<size_t>(spans_[i].layer);
    by_layer_[layer].push_back(i);
    max_duration_[layer] =
        std::max(max_duration_[layer], spans_[i].end - spans_[i].start);
  }
}

int64_t SpanTable::Count(Layer layer) const {
  return static_cast<int64_t>(by_layer_[static_cast<size_t>(layer)].size());
}

double SpanTable::BusySeconds(Layer layer) const {
  int64_t total = 0;
  for (size_t i : by_layer_[static_cast<size_t>(layer)]) {
    total += spans_[i].end - spans_[i].start;
  }
  return Seconds(total);
}

std::vector<double> SpanTable::Durations(Layer layer) const {
  std::vector<double> out;
  for (size_t i : by_layer_[static_cast<size_t>(layer)]) {
    out.push_back(Seconds(spans_[i].end - spans_[i].start));
  }
  return out;
}

double SpanTable::CoveredSeconds(const std::vector<Layer>& layers,
                                 int64_t start, int64_t end) const {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (Layer layer : layers) {
    const std::vector<size_t>& index = by_layer_[static_cast<size_t>(layer)];
    // No span of this layer starting before `first` can reach `start`.
    const int64_t first = start - max_duration_[static_cast<size_t>(layer)];
    auto it = std::lower_bound(
        index.begin(), index.end(), first,
        [&](size_t i, int64_t t) { return spans_[i].start < t; });
    for (; it != index.end(); ++it) {
      const Span& span = spans_[*it];
      if (span.start >= end) break;  // sorted by start
      if (span.end <= start) continue;
      intervals.emplace_back(std::max(span.start, start),
                             std::min(span.end, end));
    }
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (const auto& [lo, hi] : intervals) {
    const int64_t from = std::max(lo, cursor);
    if (hi > from) {
      covered += hi - from;
      cursor = hi;
    }
  }
  return Seconds(covered);
}

double SpanTable::SelfSeconds(Layer parent_layer,
                              const std::vector<Layer>& child_layers) const {
  double self = 0.0;
  for (size_t i : by_layer_[static_cast<size_t>(parent_layer)]) {
    const Span& span = spans_[i];
    self += Seconds(span.end - span.start) -
            CoveredSeconds(child_layers, span.start, span.end);
  }
  return self;
}

}  // namespace perfbench
