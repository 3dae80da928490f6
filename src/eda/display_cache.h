#ifndef ATENA_EDA_DISPLAY_CACHE_H_
#define ATENA_EDA_DISPLAY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dataframe/ops.h"
#include "dataframe/stats.h"
#include "eda/display.h"

namespace atena {

/// Running counters of one DisplayCache (totals across all shards).
struct DisplayCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  /// Estimated heap bytes of all resident values (see Options::max_bytes).
  uint64_t resident_bytes = 0;

  double hit_rate() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// A single consistent observation of a DisplayCache: the totals plus the
/// per-shard resident entry counts, all read at one instant (every shard
/// lock held simultaneously). Unlike polling stats() fields across separate
/// loads, a snapshot's hit rate and occupancy always describe the same
/// moment — what bench_serve and the serving example report.
struct DisplayCacheSnapshot {
  DisplayCacheStats totals;
  std::vector<uint64_t> shard_entries;
};

/// Thread-safe sharded LRU memoization cache for display execution.
///
/// RL training replays the same operation prefixes constantly (Boltzmann
/// exploration concentrates on few actions as the policy converges), so the
/// environment memoizes the expensive products of a step keyed by a
/// canonical 64-bit signature of the operation path (see the Signature
/// functions below): filter row sets, grouped results, per-column token
/// frequencies, capped row samples, per-selection column statistics,
/// encoded display vectors and the FILTER reward's deviation. One instance
/// is shared by all actors of ParallelPpoTrainer; each key shard has its
/// own mutex, so concurrent actors contend only within a shard.
///
/// Every cached value is an immutable shared_ptr produced by the exact
/// deterministic kernel the cache fronts, so a hit is bit-identical to a
/// recompute — caching never changes observations, rewards or notebooks.
class DisplayCache {
 public:
  struct Options {
    /// Maximum resident entries across all shards (each shard evicts LRU
    /// past capacity/shards).
    size_t capacity = size_t{1} << 16;
    /// Maximum estimated resident bytes across all shards, 0 = unbounded.
    /// Entry sizes are estimated at Put (element storage, a grouped
    /// result's header, per-entry bookkeeping); a shard evicts LRU until
    /// back under its share. At million-row tables a single filter row set
    /// is ~4 MB, so an entry cap alone no longer bounds memory — this does.
    size_t max_bytes = 0;
    int shards = 8;
  };

  explicit DisplayCache(Options options);

  DisplayCache(const DisplayCache&) = delete;
  DisplayCache& operator=(const DisplayCache&) = delete;

  /// Typed sections. Keys must come from the matching Signature function,
  /// which salts the operation-path hash per section.
  std::shared_ptr<const std::vector<int32_t>> GetRows(uint64_t key);
  void PutRows(uint64_t key, std::shared_ptr<const std::vector<int32_t>> rows);

  std::shared_ptr<const GroupedResult> GetGrouped(uint64_t key);
  void PutGrouped(uint64_t key, std::shared_ptr<const GroupedResult> grouped);

  std::shared_ptr<const std::vector<TokenFreq>> GetTokens(uint64_t key);
  void PutTokens(uint64_t key,
                 std::shared_ptr<const std::vector<TokenFreq>> tokens);

  std::shared_ptr<const std::vector<ColumnStats>> GetStats(uint64_t key);
  void PutStats(uint64_t key,
                std::shared_ptr<const std::vector<ColumnStats>> stats);

  std::shared_ptr<const std::vector<double>> GetVector(uint64_t key);
  void PutVector(uint64_t key, std::shared_ptr<const std::vector<double>> vec);

  /// One double per entry: the ungrouped FILTER reward's max-KL deviation
  /// (reward/interestingness.cc).
  std::optional<double> GetDeviation(uint64_t key);
  void PutDeviation(uint64_t key, double deviation);

  void Clear();

  /// Aggregated counters. Each shard's contribution is internally
  /// consistent (read under its lock), but shards are visited one after
  /// another, so totals may mix instants under concurrent load. Exact once
  /// the writers have quiesced.
  DisplayCacheStats stats() const;

  /// One consistent observation of the whole cache: all shard locks are
  /// acquired (in index order) before anything is read, so the returned
  /// hit rate, totals and per-shard occupancy describe a single instant —
  /// no torn multi-counter reads even while other threads keep serving.
  DisplayCacheSnapshot Snapshot() const;

 private:
  struct Entry {
    std::shared_ptr<const void> value;
    std::list<uint64_t>::iterator lru_it;
    size_t bytes = 0;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<uint64_t, Entry> entries;
    /// Most-recently-used front; evictions pop the back.
    std::list<uint64_t> lru;
    // Per-shard counters, guarded by `mutex` (updated while it is already
    // held by Get/Put, so they cost no extra synchronization and a reader
    // holding the lock sees hit/miss/occupancy move together).
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t resident_bytes = 0;
  };

  Shard& ShardFor(uint64_t key) {
    return *shards_[static_cast<size_t>(key) % shards_.size()];
  }
  std::shared_ptr<const void> Get(uint64_t key);
  void Put(uint64_t key, std::shared_ptr<const void> value, size_t bytes);

  size_t per_shard_capacity_;
  size_t per_shard_max_bytes_;  // 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Canonical operation-path signatures. All are pure functions of the
/// logical operation chain (never of row contents or pointers), so every
/// actor sharing a cache derives identical keys for identical work.
///
/// The row-set signature is *commutative* over filter predicates: a chain
/// of filters selects the rows satisfying the conjunction of its predicate
/// set, independent of application order, so displays reached through
/// reordered filter paths share one cached row set.

/// Signature of the unfiltered root selection of `table`.
uint64_t RootRowsSignature(const Table& table);

/// Signature of the selection after applying `pred` to a parent selection.
uint64_t FilterChildSignature(uint64_t parent_rows_signature,
                              const FilterPred& pred);

/// Key of the grouped result of `spec` over a selection (Grouped section).
uint64_t GroupKey(uint64_t rows_signature, const GroupSpec& spec);

/// Key of a column's token-frequency list over the capped selection
/// (Tokens section). `row_cap` is EnvConfig::stats_row_cap.
uint64_t TokenKey(uint64_t rows_signature, int column, int row_cap);

/// Key of the stride-sampled capped selection itself (Rows section).
uint64_t CappedRowsKey(uint64_t rows_signature, int row_cap);

/// Key of the ColumnStats of every column over the capped selection
/// (Stats section). Grouping does not change a display's rows, so a
/// grouped display shares its parent's entry.
uint64_t StatsKey(uint64_t rows_signature, int row_cap);

/// Key of the encoded observation vector of `display` (Vector section).
uint64_t DisplayVectorKey(const Display& display, int row_cap);

/// Key of the ungrouped FILTER reward's deviation (Deviation section): the
/// max KL over the capped selections of a display and of the display it
/// was derived from, `filtered_column` (the last filter's column, -1 for
/// none) excluded. Ordered in the two signatures, so two filter orders
/// that reach one row set from different parents get different keys.
uint64_t FilterDeviationKey(uint64_t rows_signature,
                            uint64_t previous_rows_signature,
                            int filtered_column, int row_cap);

}  // namespace atena

#endif  // ATENA_EDA_DISPLAY_CACHE_H_
