#ifndef ATENA_INDEX_NOTEBOOK_STORE_H_
#define ATENA_INDEX_NOTEBOOK_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace atena {

/// Cross-session notebook corpus (DESIGN.md §14): retired serving sessions
/// register their display-vector sequences here, and new sessions can look
/// up the most similar past notebooks — the NotebookRAG-style retrieval
/// primitive the serving runtime uses to deduplicate or warm-start
/// sessions, and the corpus the ILAEDA pretraining track will consume.
///
/// Each notebook is summarized by its display-vector centroid (the mean
/// over the zero-padded union space). The centroids live in one packed
/// arena, and TopK is an exact flat scan over it with the bounded
/// squared-distance kernel under the (squared distance, id) total order.
/// Exact-duplicate detection is separate and bitwise: sequences are hashed
/// over their raw double bits, so FindDuplicate never false-positives on
/// merely-close notebooks.
///
/// Thread-safe: all public methods take an internal mutex, so one store
/// can be shared across SessionManagers (or a manager and an offline
/// reader).
class NotebookStore {
 public:
  /// Sequences shorter than this are not registered (a root display alone
  /// is not a notebook). Counted in skipped_registrations.
  static constexpr size_t kMinSequenceLength = 2;

  /// Provenance of one registered notebook.
  struct Entry {
    uint64_t notebook_id = 0;   // dense, assigned by Register (0-based)
    uint64_t session_id = 0;
    uint64_t session_seed = 0;
    uint32_t length = 0;        // number of display vectors
  };

  /// One retrieval hit: the registered notebook plus its centroid
  /// Euclidean distance to the query sequence's centroid (0 = identical
  /// centroids; ties broken by lowest notebook id).
  struct Match {
    Entry entry;
    double distance = 0.0;
  };

  NotebookStore();

  /// Registers a display-vector sequence; returns its notebook id, or -1
  /// (as int64) when the sequence is shorter than kMinSequenceLength.
  int64_t Register(uint64_t session_id, uint64_t session_seed,
                   const std::vector<std::vector<double>>& display_vectors);

  /// The k registered notebooks whose centroids are nearest to the
  /// query sequence's centroid, nearest first (fewer when the store holds
  /// fewer; none for k <= 0).
  std::vector<Match> TopK(
      const std::vector<std::vector<double>>& display_vectors, int k) const;

  /// Bitwise-exact duplicate lookup: the id of the first registered
  /// notebook whose sequence equals `display_vectors` element for
  /// element (every double bit-identical), or -1 when none exists.
  int64_t FindDuplicate(
      const std::vector<std::vector<double>>& display_vectors) const;

  size_t size() const;
  int64_t skipped_registrations() const;
  Entry entry(uint64_t notebook_id) const;
  std::vector<std::vector<double>> sequence(uint64_t notebook_id) const;

  /// Persists the corpus (entries + sequences) as a CRC-framed
  /// `ATENA-NBSTORE v2` container; Load rebuilds the centroids and the
  /// duplicate table by replaying registrations, so a loaded store answers
  /// queries identically. Load refuses any other version by name, and a
  /// truncated or too-short sequence.
  Status Save(const std::string& path) const;
  static Result<NotebookStore> Load(const std::string& path);

 private:
  static uint64_t SequenceHash(
      const std::vector<std::vector<double>>& sequence);
  static std::vector<double> Centroid(
      const std::vector<std::vector<double>>& sequence);
  int64_t RegisterLocked(uint64_t session_id, uint64_t session_seed,
                         std::vector<std::vector<double>> display_vectors);

  /// Held by pointer so the store stays movable (Result<NotebookStore>).
  mutable std::unique_ptr<std::mutex> mutex_;
  /// Centroid of notebook i, packed in id order: its coordinates follow
  /// those of notebooks 0..i-1 in `centroids_`, and `centroid_dims_[i]`
  /// is its length.
  std::vector<double> centroids_;
  std::vector<uint32_t> centroid_dims_;
  std::vector<Entry> entries_;
  std::vector<std::vector<std::vector<double>>> sequences_;
  /// Raw-bits sequence hash -> notebook ids (verified element-wise on
  /// lookup, so hash collisions cannot produce a false duplicate).
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_hash_;
  int64_t skipped_ = 0;
};

}  // namespace atena

#endif  // ATENA_INDEX_NOTEBOOK_STORE_H_
