#ifndef ATENA_INDEX_VECTOR_INDEX_H_
#define ATENA_INDEX_VECTOR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace atena {

/// An *exact-result* hierarchical k-means (vocabulary-tree) index over
/// dense double vectors (DESIGN.md §14). The structure is the classic
/// Nistér–Stewénius layout — each internal node holds up to `branching`
/// children produced by a deterministic k-means split of its members —
/// but unlike the approximate retrieval it was invented for, every query
/// here is **exact**: tree nodes carry a ball bound (centroid + radius
/// covering every vector in the subtree), the triangle inequality prunes
/// subtrees that provably cannot contain a closer vector, and survivors
/// are re-checked with the same squared-distance kernel a flat scan uses
/// (`SquaredEuclideanDistanceBounded`). Pruning applies a conservative
/// relative slack many orders of magnitude above the kernel's worst-case
/// floating-point error, so the returned minimum is bit-identical to the
/// flat scan's at any history length (property-enforced in
/// tests/index_test.cc; exactness argument in DESIGN.md §14).
///
/// Vectors are identified by their insertion order (0, 1, 2, ...). The
/// index grows by Insert; the tree shape decides only the pruning rate,
/// never a query *result* — every query scans an unpruned candidate set
/// that provably contains the optimum.
///
/// Vectors of different lengths are allowed: distances follow
/// EuclideanDistance's documented tails-count-as-distance-from-zero
/// semantics (equivalent to zero-padding into one space, so the triangle
/// inequality the bounds rely on holds; pinned in tests/common_test.cc).
///
/// Not internally synchronized: concurrent queries are safe, any mutation
/// requires external exclusion (the EDA environment owns one per session;
/// the NotebookStore wraps a shared one in a mutex).
class VectorIndex {
 public:
  struct Options {
    /// Fan-out of each k-means split.
    int branching = 8;
    /// A leaf holding more vectors than this is split (when its members
    /// are separable; duplicate-heavy leaves stay flat and re-try after
    /// doubling, keeping amortized insert cost bounded). Tuned against
    /// real display histories (bench/bench_index.cc): leaf members are
    /// scanned with the cheap early-breaking bounded kernel while every
    /// extra node costs a centroid distance per query, so leaves several
    /// times the branching factor beat thin ones — but past ~32 the
    /// extra members scanned outweigh the nodes saved.
    int leaf_capacity = 32;
    /// Lloyd iterations per split. Affects tree quality (pruning rate)
    /// only, never query results.
    int kmeans_iterations = 6;
  };

  struct Neighbor {
    int32_t id = 0;
    double squared_distance = 0.0;
  };

  /// Pruning-effectiveness counters of one query (bench/tests).
  struct QueryStats {
    int64_t nodes_visited = 0;
    int64_t nodes_pruned = 0;
    int64_t vectors_checked = 0;
  };

  VectorIndex();
  explicit VectorIndex(Options options);

  /// Appends `vector` and threads it into the tree (descend to the
  /// nearest child at each level, growing each visited ball; split
  /// overflowing leaves). Returns the new vector's id.
  int32_t Insert(std::vector<double> vector);

  /// Removes every vector (options are kept).
  void Clear();

  size_t size() const { return vectors_.size(); }
  bool empty() const { return vectors_.empty(); }
  const std::vector<double>& vector(int32_t id) const {
    return vectors_[static_cast<size_t>(id)];
  }
  const Options& options() const { return options_; }

  /// Exact minimum squared Euclidean distance from `query` to any indexed
  /// vector with id < `id_limit` — bit-identical to a flat running-min
  /// scan with SquaredEuclideanDistanceBounded over the same ids, in id
  /// order. Returns +infinity when no id qualifies. `id_limit` exists for
  /// the diversity reward, which excludes the current display (the most
  /// recently inserted vector) from its own history scan.
  double MinSquaredDistance(
      const std::vector<double>& query,
      size_t id_limit = std::numeric_limits<size_t>::max(),
      QueryStats* stats = nullptr) const;

  /// Exact k nearest neighbors among ids < `id_limit`, sorted by
  /// (squared_distance, id) ascending — the deterministic total order, so
  /// results are identical however the index was grown. Returns fewer
  /// than k entries when fewer vectors qualify.
  std::vector<Neighbor> TopK(
      const std::vector<double>& query, int k,
      size_t id_limit = std::numeric_limits<size_t>::max(),
      QueryStats* stats = nullptr) const;

  // Structure introspection (tests/bench).
  int node_count() const { return static_cast<int>(nodes_.size()); }
  int depth() const;

 private:
  struct Node {
    std::vector<double> centroid;
    /// Upper bound on EuclideanDistance(centroid, v) for every vector v
    /// in this subtree. Grows monotonically under Insert; never shrinks.
    double radius = 0.0;
    std::vector<int32_t> children;  // internal node: child node ids
    /// Children's centroids packed contiguously in children order (with
    /// lengths alongside): the per-child prune test walks one sequential
    /// arena. Valid for the node's lifetime — a child's centroid is fixed
    /// at creation (inserts grow only its radius, which lives on the
    /// child node itself).
    std::vector<double> child_centroids;
    std::vector<uint32_t> child_centroid_dims;
    std::vector<int32_t> ids;       // leaf: member vector ids
    /// Leaf members' coordinates packed contiguously in ids order, with
    /// their lengths alongside: a leaf scan is one sequential walk over
    /// this arena instead of a cache-missing pointer chase through
    /// vectors_. Pure mirror of the members — rebuilt on split, cleared
    /// when the node becomes internal.
    std::vector<double> packed;
    std::vector<uint32_t> packed_dims;
    bool leaf = true;
    /// Split retry threshold for duplicate-heavy leaves: 0 = split as
    /// soon as capacity is exceeded; otherwise re-attempt once ids.size()
    /// reaches this count.
    size_t retry_split_at = 0;
  };

  int32_t NewNode();
  /// Appends vector `id`'s coordinates to a leaf's packed arena.
  void PackMember(Node* node, int32_t id);
  /// Rebuilds a node's packed child-centroid arena from its children.
  void PackChildCentroids(Node* node);
  void SplitLeaf(int32_t node_id);
  /// Deterministic k-means over the member set; returns per-member
  /// cluster assignments and the cluster count (1 = unseparable).
  int KMeans(const std::vector<int32_t>& ids,
             std::vector<int>* assignment) const;
  void SetCentroidAndRadius(Node* node, const std::vector<int32_t>& ids) const;

  Options options_;
  std::vector<std::vector<double>> vectors_;
  std::vector<Node> nodes_;  // nodes_[0] is the root (present once non-empty)
};

}  // namespace atena

#endif  // ATENA_INDEX_VECTOR_INDEX_H_
