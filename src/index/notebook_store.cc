#include "index/notebook_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/file_io.h"
#include "common/hashing.h"
#include "common/logging.h"
#include "common/math_utils.h"

namespace atena {

namespace {

const std::string_view kStoreMagic = "ATENA-NBSTORE v2";

void AppendU32(std::string* out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

bool ReadU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}

bool ReadU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}

}  // namespace

NotebookStore::NotebookStore() : mutex_(std::make_unique<std::mutex>()) {}

uint64_t NotebookStore::SequenceHash(
    const std::vector<std::vector<double>>& sequence) {
  // Folds whole 64-bit words — the raw double bits plus per-vector length
  // separators — so bitwise-equal sequences (and only those, up to hash
  // collisions that the verified lookup filters out) hash equal. The hash
  // keys only the in-memory by_hash_ table, which Load rebuilds.
  uint64_t h = Mix64(static_cast<uint64_t>(sequence.size()));
  for (const auto& v : sequence) {
    h = HashCombine(h, static_cast<uint64_t>(v.size()));
    for (double x : v) {
      uint64_t bits;
      std::memcpy(&bits, &x, sizeof(bits));
      h = HashCombine(h, bits);
    }
  }
  return h;
}

std::vector<double> NotebookStore::Centroid(
    const std::vector<std::vector<double>>& sequence) {
  size_t dim = 0;
  for (const auto& v : sequence) dim = std::max(dim, v.size());
  std::vector<double> centroid(dim, 0.0);
  if (sequence.empty()) return centroid;
  for (const auto& v : sequence) {
    for (size_t i = 0; i < v.size(); ++i) centroid[i] += v[i];
  }
  const double inv = 1.0 / static_cast<double>(sequence.size());
  for (double& c : centroid) c *= inv;
  return centroid;
}

int64_t NotebookStore::RegisterLocked(
    uint64_t session_id, uint64_t session_seed,
    std::vector<std::vector<double>> display_vectors) {
  if (display_vectors.size() < kMinSequenceLength) {
    ++skipped_;
    return -1;
  }
  const uint64_t id = static_cast<uint64_t>(entries_.size());
  Entry entry;
  entry.notebook_id = id;
  entry.session_id = session_id;
  entry.session_seed = session_seed;
  entry.length = static_cast<uint32_t>(display_vectors.size());
  const std::vector<double> centroid = Centroid(display_vectors);
  centroids_.insert(centroids_.end(), centroid.begin(), centroid.end());
  centroid_dims_.push_back(static_cast<uint32_t>(centroid.size()));
  by_hash_[SequenceHash(display_vectors)].push_back(id);
  entries_.push_back(entry);
  sequences_.push_back(std::move(display_vectors));
  return static_cast<int64_t>(id);
}

int64_t NotebookStore::Register(
    uint64_t session_id, uint64_t session_seed,
    const std::vector<std::vector<double>>& display_vectors) {
  std::lock_guard<std::mutex> lock(*mutex_);
  return RegisterLocked(session_id, session_seed, display_vectors);
}

std::vector<NotebookStore::Match> NotebookStore::TopK(
    const std::vector<std::vector<double>>& display_vectors, int k) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  std::vector<Match> matches;
  if (k <= 0 || entries_.empty()) return matches;
  const std::vector<double> query = Centroid(display_vectors);
  const size_t want = std::min(static_cast<size_t>(k), entries_.size());
  // The nearest so far as (squared distance, id), ascending. Ids arrive in
  // ascending order, so a candidate that only ties the worst kept distance
  // never displaces it: among equal distances the lowest ids win. Once
  // `want` are kept, the worst of them bounds the kernel, which returns
  // the exact squared distance whenever it is at or below the bound.
  std::vector<std::pair<double, size_t>> kept;
  kept.reserve(want + 1);
  double bound = std::numeric_limits<double>::infinity();
  const double* centroid = centroids_.data();
  for (size_t id = 0; id < entries_.size(); ++id) {
    const size_t dim = centroid_dims_[id];
    const double sq = SquaredEuclideanDistanceBounded(
        query.data(), query.size(), centroid, dim, bound);
    centroid += dim;
    if (kept.size() == want && !(sq < bound)) continue;
    const auto at = std::upper_bound(
        kept.begin(), kept.end(), sq,
        [](double value, const std::pair<double, size_t>& kept_entry) {
          return value < kept_entry.first;
        });
    kept.insert(at, {sq, id});
    if (kept.size() > want) kept.pop_back();
    if (kept.size() == want) bound = kept.back().first;
  }
  matches.reserve(kept.size());
  for (const auto& [squared_distance, id] : kept) {
    Match match;
    match.entry = entries_[id];
    match.distance = std::sqrt(squared_distance);
    matches.push_back(match);
  }
  return matches;
}

int64_t NotebookStore::FindDuplicate(
    const std::vector<std::vector<double>>& display_vectors) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  const auto it = by_hash_.find(SequenceHash(display_vectors));
  if (it == by_hash_.end()) return -1;
  for (uint64_t id : it->second) {
    if (sequences_[static_cast<size_t>(id)] == display_vectors) {
      return static_cast<int64_t>(id);
    }
  }
  return -1;
}

size_t NotebookStore::size() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return entries_.size();
}

int64_t NotebookStore::skipped_registrations() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return skipped_;
}

NotebookStore::Entry NotebookStore::entry(uint64_t notebook_id) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  ATENA_CHECK(notebook_id < entries_.size()) << "notebook id out of range";
  return entries_[static_cast<size_t>(notebook_id)];
}

std::vector<std::vector<double>> NotebookStore::sequence(
    uint64_t notebook_id) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  ATENA_CHECK(notebook_id < sequences_.size()) << "notebook id out of range";
  return sequences_[static_cast<size_t>(notebook_id)];
}

Status NotebookStore::Save(const std::string& path) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  std::string payload;
  AppendU64(&payload, static_cast<uint64_t>(entries_.size()));
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    AppendU64(&payload, entry.session_id);
    AppendU64(&payload, entry.session_seed);
    const auto& sequence = sequences_[i];
    AppendU32(&payload, static_cast<uint32_t>(sequence.size()));
    for (const auto& v : sequence) {
      AppendU32(&payload, static_cast<uint32_t>(v.size()));
      const size_t bytes = v.size() * sizeof(double);
      const size_t at = payload.size();
      payload.resize(at + bytes);
      if (bytes > 0) std::memcpy(&payload[at], v.data(), bytes);
    }
  }
  return WriteChecksummedFile(path, kStoreMagic, payload);
}

Result<NotebookStore> NotebookStore::Load(const std::string& path) {
  std::string payload;
  ATENA_RETURN_IF_ERROR(ReadChecksummedFile(path, kStoreMagic, &payload));
  size_t pos = 0;
  uint64_t count = 0;
  if (!ReadU64(payload, &pos, &count)) {
    return Status::IOError("notebook store " + path + ": truncated header");
  }
  NotebookStore store;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t session_id = 0, session_seed = 0;
    uint32_t length = 0;
    if (!ReadU64(payload, &pos, &session_id) ||
        !ReadU64(payload, &pos, &session_seed) ||
        !ReadU32(payload, &pos, &length) ||
        // Each display takes at least its 4-byte dimension, so a length
        // the remaining bytes cannot hold is truncation, not a reserve.
        length > (payload.size() - pos) / sizeof(uint32_t)) {
      return Status::IOError("notebook store " + path +
                             ": truncated notebook " + std::to_string(i));
    }
    std::vector<std::vector<double>> sequence;
    sequence.reserve(length);
    for (uint32_t v = 0; v < length; ++v) {
      uint32_t dim = 0;
      if (!ReadU32(payload, &pos, &dim)) {
        return Status::IOError("notebook store " + path +
                               ": truncated notebook " + std::to_string(i));
      }
      const size_t bytes = static_cast<size_t>(dim) * sizeof(double);
      if (pos + bytes > payload.size()) {
        return Status::IOError("notebook store " + path +
                               ": truncated notebook " + std::to_string(i));
      }
      std::vector<double> vec(static_cast<size_t>(dim));
      if (bytes > 0) std::memcpy(vec.data(), payload.data() + pos, bytes);
      pos += bytes;
      sequence.push_back(std::move(vec));
    }
    if (store.RegisterLocked(session_id, session_seed,
                             std::move(sequence)) < 0) {
      return Status::InvalidArgument(
          "notebook store " + path + ": notebook " + std::to_string(i) +
          " is shorter than " + std::to_string(kMinSequenceLength) +
          " displays");
    }
  }
  if (pos != payload.size()) {
    return Status::IOError("notebook store " + path + ": " +
                           std::to_string(payload.size() - pos) +
                           " trailing bytes");
  }
  return store;
}

}  // namespace atena
