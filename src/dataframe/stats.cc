#include "dataframe/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <memory_resource>
#include <unordered_map>

#include "common/hashing.h"
#include "common/logging.h"
#include "common/math_utils.h"

namespace atena {

namespace {

// Columns with at most this many codes count through direct-addressed
// per-code slots; columns with more go through the open-addressed table.
constexpr size_t kMaxDirectCodes = size_t{1} << 16;
// Scratch grown past this many elements by one large pass (a full-table
// pass over a scaled table) is released when that pass ends, so a worker
// thread never pins more than ~1.5 MB of counting scratch.
constexpr size_t kMaxRetainedSlots = size_t{1} << 15;
constexpr size_t kMinTableSlots = 16;
// Bytes of a thread's histogram arena. Maps past it (one whole-table pass
// over a scaled table) continue on the upstream allocator, which the
// scope's end releases.
constexpr size_t kArenaBytes = size_t{256} << 10;

/// Open-addressed table slot. A slot is occupied in the current pass iff
/// its stamp equals the scratch epoch, so starting a pass never clears
/// the table.
struct Slot {
  int64_t key = 0;
  uint32_t stamp = 0;
  uint32_t index = 0;  // position of `key` in CountScratch::codes
};

/// Per-thread counting scratch, reused across passes.
struct CountScratch {
  // Result of the current pass.
  std::vector<int64_t> codes;   // distinct codes, first-occurrence order
  std::vector<int64_t> counts;  // counts[i] = occurrences of codes[i]
  int64_t nulls = 0;
  // Direct-addressed counts per code; all zero between passes.
  std::vector<int64_t> code_counts;
  std::vector<Slot> slots;
  uint32_t epoch = 0;
  bool busy = false;
};

CountScratch& ThreadScratch() {
  thread_local CountScratch scratch;
  return scratch;
}

template <typename T>
void ReleaseIfOversized(std::vector<T>* v) {
  if (v->capacity() > kMaxRetainedSlots) std::vector<T>().swap(*v);
}

/// One counting pass over a selection: every distinct code of its non-null
/// cells in first-occurrence order, its exact count, and the number of null
/// cells. Codes are counted the same way for every column type; key(i)
/// maps one back to its cell key (Column::CellKey), so the distinct keys,
/// their counts and their order are those of counting cell keys. No
/// per-row allocation; the result lives in the calling thread's scratch
/// until the pass object is destroyed, so at most one pass per thread may
/// be alive at a time.
class CountingPass {
 public:
  CountingPass(const Column& column, const std::vector<int32_t>& rows)
      : column_(column), s_(ThreadScratch()) {
    ATENA_CHECK(!s_.busy) << "nested column counting pass";
    s_.busy = true;
    s_.codes.clear();
    s_.counts.clear();
    const int32_t* codes = column.code_data();
    const uint8_t* valid = column.validity_data();
    const auto num_codes = static_cast<size_t>(column.num_codes());
    if (num_codes <= kMaxDirectCodes) {
      CountDirect(codes, valid, rows, num_codes);
    } else {
      CountHashed(codes, valid, rows);
    }
  }

  ~CountingPass() {
    ReleaseIfOversized(&s_.codes);
    ReleaseIfOversized(&s_.counts);
    ReleaseIfOversized(&s_.slots);
    s_.busy = false;
  }

  CountingPass(const CountingPass&) = delete;
  CountingPass& operator=(const CountingPass&) = delete;

  size_t distinct() const { return s_.codes.size(); }
  int32_t code(size_t i) const { return static_cast<int32_t>(s_.codes[i]); }
  int64_t key(size_t i) const { return column_.CodeKey(code(i)); }
  const std::vector<int64_t>& counts() const { return s_.counts; }
  int64_t nulls() const { return s_.nulls; }

 private:
  void CountDirect(const int32_t* codes, const uint8_t* valid,
                   const std::vector<int32_t>& rows, size_t num_codes) {
    if (s_.code_counts.size() < num_codes) {
      s_.code_counts.resize(num_codes, 0);
    }
    int64_t* code_counts = s_.code_counts.data();
    std::vector<int64_t>& seen = s_.codes;
    int64_t nulls = 0;
    for (int32_t r : rows) {
      if (!valid[r]) {
        ++nulls;
        continue;
      }
      const int32_t code = codes[r];
      if (code_counts[code]++ == 0) seen.push_back(code);
    }
    s_.nulls = nulls;
    s_.counts.resize(seen.size());
    for (size_t i = 0; i < seen.size(); ++i) {
      s_.counts[i] = code_counts[seen[i]];
      code_counts[seen[i]] = 0;
    }
  }

  void CountHashed(const int32_t* codes, const uint8_t* valid,
                   const std::vector<int32_t>& rows) {
    // Load factor stays <= 1/2: the table starts at twice the row count
    // (bounded) and doubles whenever the distinct codes reach half of it.
    size_t capacity = std::bit_ceil(std::max(
        kMinTableSlots, 2 * std::min(rows.size(), kMaxRetainedSlots / 2)));
    size_t mask = ResetTable(capacity);
    Slot* slots = s_.slots.data();
    uint32_t epoch = s_.epoch;
    std::vector<int64_t>& seen = s_.codes;
    std::vector<int64_t>& counts = s_.counts;
    int64_t nulls = 0;
    for (int32_t r : rows) {
      if (!valid[r]) {
        ++nulls;
        continue;
      }
      const int64_t key = codes[r];
      size_t pos = Mix64(static_cast<uint64_t>(key)) & mask;
      while (true) {
        Slot& slot = slots[pos];
        if (slot.stamp != epoch) {
          slot = Slot{key, epoch, static_cast<uint32_t>(seen.size())};
          seen.push_back(key);
          counts.push_back(1);
          if (2 * seen.size() > capacity) {
            capacity *= 2;
            mask = ResetTable(capacity);
            slots = s_.slots.data();
            epoch = s_.epoch;
            for (size_t i = 0; i < seen.size(); ++i) {
              size_t at = Mix64(static_cast<uint64_t>(seen[i])) & mask;
              while (slots[at].stamp == epoch) at = (at + 1) & mask;
              slots[at] = Slot{seen[i], epoch, static_cast<uint32_t>(i)};
            }
          }
          break;
        }
        if (slot.key == key) {
          ++counts[slot.index];
          break;
        }
        pos = (pos + 1) & mask;
      }
    }
    s_.nulls = nulls;
  }

  /// Makes the first `capacity` slots empty (by starting a new epoch) and
  /// returns the probe mask.
  size_t ResetTable(size_t capacity) {
    if (s_.slots.size() < capacity) s_.slots.resize(capacity);
    if (++s_.epoch == 0) {
      for (Slot& slot : s_.slots) slot.stamp = 0;
      s_.epoch = 1;
    }
    return capacity - 1;
  }

  const Column& column_;
  CountScratch& s_;
};

/// A thread's monotonic arena for the maps below. The buffer is not
/// zero-filled, so pages no map reaches stay out of RSS.
struct HistogramArena {
  std::unique_ptr<std::byte[]> buffer =
      std::make_unique_for_overwrite<std::byte[]>(kArenaBytes);
  std::pmr::monotonic_buffer_resource resource{
      buffer.get(), kArenaBytes, std::pmr::new_delete_resource()};
  bool busy = false;
};

/// The calling thread's histogram arena for one scope. Maps on resource()
/// are declared after the scope object, so they are destroyed before it,
/// and never leave it: the scope's end releases every byte at once. At
/// most one scope per thread may be alive at a time.
class ArenaScope {
 public:
  ArenaScope() : arena_(ThreadArena()) {
    ATENA_CHECK(!arena_.busy) << "nested histogram arena scope";
    arena_.busy = true;
  }
  ~ArenaScope() {
    arena_.resource.release();
    arena_.busy = false;
  }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  std::pmr::memory_resource* resource() const { return &arena_.resource; }

 private:
  static HistogramArena& ThreadArena() {
    thread_local HistogramArena arena;
    return arena;
  }

  HistogramArena& arena_;
};

using ArenaHistogram = std::pmr::unordered_map<int64_t, double>;

/// The histogram map the per-row `hist[key] += 1.0` loop builds. That loop
/// restructures the map only when it inserts a new key, and it inserts the
/// distinct keys in first-occurrence order — so inserting just those keys,
/// in that order (no reserve), yields the same buckets and the same
/// iteration order. The allocator plays no part in either.
ArenaHistogram HistogramOf(const CountingPass& pass, const ArenaScope& arena) {
  ArenaHistogram hist(arena.resource());
  const std::vector<int64_t>& counts = pass.counts();
  for (size_t i = 0; i < pass.distinct(); ++i) {
    hist.emplace(pass.key(i), static_cast<double>(counts[i]));
  }
  return hist;
}

/// HistogramOf over its own counting pass, which ends before the next one
/// may start.
ArenaHistogram SelectionHistogram(const Column& column,
                                  const std::vector<int32_t>& rows,
                                  const ArenaScope& arena) {
  CountingPass pass(column, rows);
  return HistogramOf(pass, arena);
}

/// Entropy() of `distinct` copies of `count`, without materializing them.
/// Every term of both of Entropy's sums is the same value, so the sums do
/// not depend on order. Its total is a sum of integers below 2^53, which
/// is exact, so the product below has the same bits; the entropy sum is
/// performed term by term exactly as Entropy performs it.
double EqualCountsEntropy(size_t distinct, double count) {
  const double total = static_cast<double>(distinct) * count;
  const double p = count / total;
  const double log_p = std::log(p);
  double h = 0.0;
  for (size_t i = 0; i < distinct; ++i) h -= p * log_p;
  return h;
}

}  // namespace

ColumnStats ComputeColumnStats(const Column& column,
                               const std::vector<int32_t>& rows) {
  CountingPass pass(column, rows);
  const std::vector<int64_t>& counts = pass.counts();
  ColumnStats stats;
  stats.count = static_cast<int64_t>(rows.size());
  stats.nulls = pass.nulls();
  stats.distinct = static_cast<int64_t>(counts.size());
  if (counts.empty()) return stats;
  if (std::all_of(counts.begin(), counts.end(),
                  [&](int64_t c) { return c == counts.front(); })) {
    // Key-like columns land here: no map, one log.
    stats.entropy = EqualCountsEntropy(
        counts.size(), static_cast<double>(counts.front()));
  } else {
    // Entropy's sum is order-sensitive: take the counts in the order the
    // per-row histogram map iterates them.
    std::vector<double> ordered;
    ordered.reserve(counts.size());
    {
      ArenaScope arena;
      for (const auto& entry : HistogramOf(pass, arena)) {
        ordered.push_back(entry.second);
      }
    }
    stats.entropy = Entropy(ordered);
  }
  // NormalizedEntropy() of the same counts, without recomputing Entropy:
  // every count is positive, so the support is the distinct count.
  stats.normalized_entropy =
      stats.distinct <= 1
          ? 0.0
          : stats.entropy / std::log(static_cast<double>(stats.distinct));
  return stats;
}

std::vector<ColumnStats> ComputeSelectionStats(
    const Table& table, const std::vector<int32_t>& rows) {
  std::vector<ColumnStats> stats;
  stats.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    stats.push_back(ComputeColumnStats(*table.column(c), rows));
  }
  return stats;
}

double SelectionKlDivergence(const Column& column,
                             const std::vector<int32_t>& p_rows,
                             const std::vector<int32_t>& q_rows) {
  ArenaScope arena;
  const ArenaHistogram p = SelectionHistogram(column, p_rows, arena);
  const ArenaHistogram q = SelectionHistogram(column, q_rows, arena);
  return KlDivergence(p, q);
}

std::vector<TokenFreq> TokenFrequencies(const Column& column,
                                        const std::vector<int32_t>& rows) {
  CountingPass pass(column, rows);
  const size_t distinct = pass.distinct();
  std::vector<TokenFreq> out;
  out.reserve(distinct);
  // Tokens sort by (count descending, ValueLess ascending). When no two of
  // the selection's keys can tie, that order is total, so it is the order
  // of (count descending, Column::CodeRank ascending) — ranks follow the
  // values' order, and they differ from ValueLess only on keys that tie —
  // and one sort of packed integers from any starting order yields it.
  bool can_tie = false;
  if (!column.order_coded()) {
    std::vector<int64_t> keys(distinct);
    for (size_t i = 0; i < distinct; ++i) keys[i] = pass.key(i);
    can_tie = KeysCanTie(column.type(), keys);
  }
  if (!can_tie) {
    // (UINT32_MAX - count) in the high half, the rank in the low half. A
    // count is below 2^32: a selection holds fewer row ids than that.
    constexpr uint64_t kLow = 0xFFFFFFFFULL;
    std::vector<uint64_t> packed(distinct);
    for (size_t i = 0; i < distinct; ++i) {
      const auto count = static_cast<uint64_t>(pass.counts()[i]);
      const auto rank = static_cast<uint64_t>(column.CodeRank(pass.code(i)));
      packed[i] = ((kLow - count) << 32) | rank;
    }
    std::sort(packed.begin(), packed.end());
    for (uint64_t p : packed) {
      const int32_t code = column.CodeAtRank(static_cast<int32_t>(p & kLow));
      out.push_back(TokenFreq{column.CodeKey(code),
                              static_cast<int64_t>(kLow - (p >> 32))});
    }
    return out;
  }
  // Keys that tie: sort by (count descending, Column::OrderKey ascending),
  // which decides every pair exactly as (count descending, ValueLess) does.
  // std::sort's result then depends on its starting order (it is not
  // stable), which must be the per-row map's iteration order.
  struct Ranked {
    int64_t count;
    double order;
    int64_t key;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(distinct);
  {
    ArenaScope arena;
    for (const auto& [key, count] : HistogramOf(pass, arena)) {
      ranked.push_back(
          {static_cast<int64_t>(count), column.OrderKey(key), key});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.order < b.order;
            });
  for (const Ranked& r : ranked) out.push_back(TokenFreq{r.key, r.count});
  return out;
}

}  // namespace atena
