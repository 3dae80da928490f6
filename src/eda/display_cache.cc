#include "eda/display_cache.h"

#include <algorithm>
#include <bit>

#include "common/hashing.h"
#include "common/logging.h"

namespace atena {

namespace {

// Section salts keep the seven typed key spaces disjoint even when they are
// derived from the same operation-path signature.
constexpr uint64_t kRowsSalt = 0xA1C4E953F0B6D711ULL;
constexpr uint64_t kGroupSalt = 0xB7E151628AED2A6BULL;
constexpr uint64_t kTokenSalt = 0x93C467E37DB0C7A4ULL;
constexpr uint64_t kCappedSalt = 0xD1310BA698DFB5ACULL;
constexpr uint64_t kVectorSalt = 0xF61E2562C040B340ULL;
constexpr uint64_t kStatsSalt = 0x8E79DCB0603A180EULL;
constexpr uint64_t kDeviationSalt = 0xC5B1A3E0F2D47968ULL;

uint64_t HashValue(const Value& value) {
  if (value.is_null()) return Mix64(0x9D2C5680ULL);
  if (value.is_int()) {
    return HashCombine(1, static_cast<uint64_t>(value.as_int()));
  }
  if (value.is_double()) {
    return HashCombine(2, std::bit_cast<uint64_t>(value.as_double()));
  }
  return HashCombine(3, HashString(value.as_string()));
}

// Estimated heap bytes of cached values, charged against Options::max_bytes:
// element storage at full weight, so that multi-megabyte row sets from
// million-row tables bound the budget, plus kEntryOverhead, what an entry
// costs beyond its elements: its hash-map node, its LRU node, the
// shared_ptr control block holding the value object, and malloc headers.
// glibc on x86-64 measures 152 bytes of that bookkeeping per entry plus
// 8-16 bytes of header on the element array (mallinfo2 over 20,000 entries
// per section). Groups and tokens are flat PODs (a member row, a cell key)
// with no heap payload of their own.
constexpr size_t kEntryOverhead = 160;

size_t RowsBytes(const std::vector<int32_t>& rows) {
  return kEntryOverhead + rows.capacity() * sizeof(int32_t);
}

size_t GroupedBytes(const GroupedResult& grouped) {
  // The result object with its header vectors and strings, then the groups.
  size_t bytes = kEntryOverhead + sizeof(GroupedResult) +
                 grouped.spec.group_columns.capacity() * sizeof(int) +
                 grouped.key_names.capacity() * sizeof(std::string) +
                 grouped.agg_name.size() +
                 grouped.groups.capacity() * sizeof(Group);
  for (const std::string& name : grouped.key_names) bytes += name.size();
  return bytes;
}

size_t TokensBytes(const std::vector<TokenFreq>& tokens) {
  return kEntryOverhead + tokens.capacity() * sizeof(TokenFreq);
}

size_t StatsBytes(const std::vector<ColumnStats>& stats) {
  return kEntryOverhead + stats.capacity() * sizeof(ColumnStats);
}

size_t VectorBytes(const std::vector<double>& vec) {
  return kEntryOverhead + vec.capacity() * sizeof(double);
}

constexpr size_t kDeviationBytes = kEntryOverhead + sizeof(double);

}  // namespace

DisplayCache::DisplayCache(Options options) {
  const int shards = std::max(1, options.shards);
  per_shard_capacity_ =
      std::max<size_t>(1, options.capacity / static_cast<size_t>(shards));
  per_shard_max_bytes_ =
      options.max_bytes == 0
          ? 0
          : std::max<size_t>(1, options.max_bytes /
                                    static_cast<size_t>(shards));
  shards_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const void> DisplayCache::Get(uint64_t key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.value;
}

void DisplayCache::Put(uint64_t key, std::shared_ptr<const void> value,
                       size_t bytes) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Another actor raced us to the same computation; both results are
    // bit-identical, keep the resident one.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return;
  }
  shard.lru.push_front(key);
  shard.entries.emplace(key, Entry{std::move(value), shard.lru.begin(),
                                   bytes});
  shard.resident_bytes += bytes;
  // Evict LRU past either budget. The byte loop keeps the newest entry even
  // if it alone exceeds the shard budget (an empty cache would thrash);
  // entries.size() > 1 guards that.
  while (shard.entries.size() > per_shard_capacity_ ||
         (per_shard_max_bytes_ != 0 &&
          shard.resident_bytes > per_shard_max_bytes_ &&
          shard.entries.size() > 1)) {
    auto victim = shard.entries.find(shard.lru.back());
    shard.resident_bytes -= victim->second.bytes;
    shard.entries.erase(victim);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

std::shared_ptr<const std::vector<int32_t>> DisplayCache::GetRows(
    uint64_t key) {
  return std::static_pointer_cast<const std::vector<int32_t>>(Get(key));
}

void DisplayCache::PutRows(uint64_t key,
                           std::shared_ptr<const std::vector<int32_t>> rows) {
  const size_t bytes = RowsBytes(*rows);
  Put(key, std::move(rows), bytes);
}

std::shared_ptr<const GroupedResult> DisplayCache::GetGrouped(uint64_t key) {
  return std::static_pointer_cast<const GroupedResult>(Get(key));
}

void DisplayCache::PutGrouped(uint64_t key,
                              std::shared_ptr<const GroupedResult> grouped) {
  const size_t bytes = GroupedBytes(*grouped);
  Put(key, std::move(grouped), bytes);
}

std::shared_ptr<const std::vector<TokenFreq>> DisplayCache::GetTokens(
    uint64_t key) {
  return std::static_pointer_cast<const std::vector<TokenFreq>>(Get(key));
}

void DisplayCache::PutTokens(
    uint64_t key, std::shared_ptr<const std::vector<TokenFreq>> tokens) {
  const size_t bytes = TokensBytes(*tokens);
  Put(key, std::move(tokens), bytes);
}

std::shared_ptr<const std::vector<ColumnStats>> DisplayCache::GetStats(
    uint64_t key) {
  return std::static_pointer_cast<const std::vector<ColumnStats>>(Get(key));
}

void DisplayCache::PutStats(
    uint64_t key, std::shared_ptr<const std::vector<ColumnStats>> stats) {
  const size_t bytes = StatsBytes(*stats);
  Put(key, std::move(stats), bytes);
}

std::shared_ptr<const std::vector<double>> DisplayCache::GetVector(
    uint64_t key) {
  return std::static_pointer_cast<const std::vector<double>>(Get(key));
}

void DisplayCache::PutVector(uint64_t key,
                             std::shared_ptr<const std::vector<double>> vec) {
  const size_t bytes = VectorBytes(*vec);
  Put(key, std::move(vec), bytes);
}

std::optional<double> DisplayCache::GetDeviation(uint64_t key) {
  auto hit = std::static_pointer_cast<const double>(Get(key));
  if (!hit) return std::nullopt;
  return *hit;
}

void DisplayCache::PutDeviation(uint64_t key, double deviation) {
  Put(key, std::make_shared<const double>(deviation), kDeviationBytes);
}

void DisplayCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->entries.clear();
    shard->lru.clear();
    shard->resident_bytes = 0;
  }
}

DisplayCacheStats DisplayCache::stats() const {
  DisplayCacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.entries += shard->entries.size();
    stats.resident_bytes += shard->resident_bytes;
  }
  return stats;
}

DisplayCacheSnapshot DisplayCache::Snapshot() const {
  // Acquire every shard lock (index order — the only multi-lock site, so
  // the ordering can never deadlock against single-shard Get/Put) and only
  // then read, so all counters describe one instant.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex);
  }
  DisplayCacheSnapshot snapshot;
  snapshot.shard_entries.reserve(shards_.size());
  for (const auto& shard : shards_) {
    snapshot.totals.hits += shard->hits;
    snapshot.totals.misses += shard->misses;
    snapshot.totals.evictions += shard->evictions;
    snapshot.totals.entries += shard->entries.size();
    snapshot.totals.resident_bytes += shard->resident_bytes;
    snapshot.shard_entries.push_back(shard->entries.size());
  }
  return snapshot;
}

uint64_t RootRowsSignature(const Table& table) {
  uint64_t sig = HashString(table.name(), kRowsSalt);
  return HashCombine(sig, static_cast<uint64_t>(table.num_rows()));
}

uint64_t FilterChildSignature(uint64_t parent_rows_signature,
                              const FilterPred& pred) {
  uint64_t h = HashCombine(static_cast<uint64_t>(pred.column),
                           static_cast<uint64_t>(pred.op));
  h = HashCombine(h, HashValue(pred.term));
  // Commutative across predicates: sequential filters select the
  // conjunction of their predicate set, so reordered paths must collide.
  return parent_rows_signature + Mix64(h);
}

uint64_t GroupKey(uint64_t rows_signature, const GroupSpec& spec) {
  uint64_t key = HashCombine(kGroupSalt, rows_signature);
  for (int c : spec.group_columns) {
    key = HashCombine(key, static_cast<uint64_t>(c));
  }
  key = HashCombine(key, static_cast<uint64_t>(spec.agg));
  return HashCombine(key, static_cast<uint64_t>(spec.agg_column));
}

uint64_t TokenKey(uint64_t rows_signature, int column, int row_cap) {
  uint64_t key = HashCombine(kTokenSalt, rows_signature);
  key = HashCombine(key, static_cast<uint64_t>(column));
  return HashCombine(key, static_cast<uint64_t>(row_cap));
}

uint64_t CappedRowsKey(uint64_t rows_signature, int row_cap) {
  uint64_t key = HashCombine(kCappedSalt, rows_signature);
  return HashCombine(key, static_cast<uint64_t>(row_cap));
}

uint64_t StatsKey(uint64_t rows_signature, int row_cap) {
  uint64_t key = HashCombine(kStatsSalt, rows_signature);
  return HashCombine(key, static_cast<uint64_t>(row_cap));
}

uint64_t DisplayVectorKey(const Display& display, int row_cap) {
  uint64_t key = HashCombine(kVectorSalt, display.rows_signature);
  key = HashCombine(key, static_cast<uint64_t>(row_cap));
  for (int c : display.group_columns) {
    key = HashCombine(key, static_cast<uint64_t>(c));
  }
  key = HashCombine(key, static_cast<uint64_t>(display.agg));
  return HashCombine(key, static_cast<uint64_t>(display.agg_column));
}

uint64_t FilterDeviationKey(uint64_t rows_signature,
                            uint64_t previous_rows_signature,
                            int filtered_column, int row_cap) {
  uint64_t key = HashCombine(kDeviationSalt, rows_signature);
  key = HashCombine(key, previous_rows_signature);
  key = HashCombine(key, static_cast<uint64_t>(filtered_column));
  return HashCombine(key, static_cast<uint64_t>(row_cap));
}

}  // namespace atena
