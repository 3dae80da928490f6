#include "index/vector_index.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "common/logging.h"
#include "common/math_utils.h"

namespace atena {

namespace {

/// Relative slack applied to every ball lower bound before it may prune.
/// The computed Euclidean distances carry a worst-case relative rounding
/// error of ~n·2^-52 (n = vector dimension) — below 1e-12 for any display
/// vector this system produces — so a 1e-9 slack dominates it by three
/// orders of magnitude: a subtree is pruned only when every member is
/// *provably* farther than the current best even under worst-case
/// rounding, which is what makes the index's results bit-identical to the
/// flat scan (DESIGN.md §14).
constexpr double kBoundSlack = 1e-9;

/// Conservative lower bound on the distance from the query to any vector
/// inside a ball of `radius` around a centroid at `center_dist`.
inline double BallLowerBound(double center_dist, double radius) {
  const double lb = center_dist - radius;
  return lb > 0.0 ? lb * (1.0 - kBoundSlack) : 0.0;
}

/// Squared centroid distance past which a ball is certainly pruned, i.e.
/// the contrapositive of the BallLowerBound comparison: prune happens iff
/// (dist - radius)·(1-slack) > best, iff dist > best/(1-slack) + radius.
/// Inflated by one more slack factor so the bounded kernel's early break
/// (partial sums, different rounding than the full sum) can never trigger
/// on a ball the exact comparison would have kept — the kernel returns
/// the exact squared distance whenever it is below this threshold, and
/// the caller then applies the standard comparison to it.
inline double PruneThresholdSquared(double best, double radius) {
  if (!(best < std::numeric_limits<double>::infinity())) {
    return std::numeric_limits<double>::infinity();
  }
  const double t = best / (1.0 - kBoundSlack) + radius;
  return t * t * (1.0 + kBoundSlack);
}

}  // namespace

VectorIndex::VectorIndex() : VectorIndex(Options()) {}

VectorIndex::VectorIndex(Options options) : options_(options) {
  ATENA_CHECK(options_.branching >= 2) << "branching must be >= 2";
  ATENA_CHECK(options_.leaf_capacity >= 1) << "leaf_capacity must be >= 1";
}

int32_t VectorIndex::NewNode() {
  nodes_.emplace_back();
  return static_cast<int32_t>(nodes_.size() - 1);
}

void VectorIndex::PackMember(Node* node, int32_t id) {
  const std::vector<double>& v = vectors_[static_cast<size_t>(id)];
  node->packed.insert(node->packed.end(), v.begin(), v.end());
  node->packed_dims.push_back(static_cast<uint32_t>(v.size()));
}

void VectorIndex::PackChildCentroids(Node* node) {
  node->child_centroids.clear();
  node->child_centroid_dims.clear();
  for (int32_t child : node->children) {
    const std::vector<double>& c = nodes_[static_cast<size_t>(child)].centroid;
    node->child_centroids.insert(node->child_centroids.end(), c.begin(),
                                 c.end());
    node->child_centroid_dims.push_back(static_cast<uint32_t>(c.size()));
  }
}

void VectorIndex::SetCentroidAndRadius(Node* node,
                                       const std::vector<int32_t>& ids) const {
  size_t dim = 0;
  for (int32_t id : ids) {
    dim = std::max(dim, vectors_[static_cast<size_t>(id)].size());
  }
  // Mean over the zero-padded union space — consistent with the distance
  // kernel's tails-count-as-distance-from-zero semantics.
  std::vector<double> centroid(dim, 0.0);
  for (int32_t id : ids) {
    const auto& v = vectors_[static_cast<size_t>(id)];
    for (size_t i = 0; i < v.size(); ++i) centroid[i] += v[i];
  }
  const double inv = ids.empty() ? 0.0 : 1.0 / static_cast<double>(ids.size());
  for (double& c : centroid) c *= inv;
  double radius = 0.0;
  for (int32_t id : ids) {
    radius = std::max(
        radius, EuclideanDistance(centroid, vectors_[static_cast<size_t>(id)]));
  }
  node->centroid = std::move(centroid);
  node->radius = radius;
}

int VectorIndex::KMeans(const std::vector<int32_t>& ids,
                        std::vector<int>* assignment) const {
  const size_t n = ids.size();
  const int want =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(options_.branching), n));
  // Deterministic farthest-point init: the first member seeds center 0,
  // each next center is the member farthest from all chosen ones (ties ->
  // lowest position). Stops early when every remaining member coincides
  // with a chosen center — duplicate-heavy sets get fewer clusters.
  std::vector<std::vector<double>> centers;
  std::vector<double> min_sq(n, std::numeric_limits<double>::infinity());
  centers.push_back(vectors_[static_cast<size_t>(ids[0])]);
  while (static_cast<int>(centers.size()) < want) {
    size_t far = 0;
    double far_sq = -1.0;
    for (size_t i = 0; i < n; ++i) {
      const double sq = std::min(
          min_sq[i], SquaredEuclideanDistance(
                         centers.back(), vectors_[static_cast<size_t>(ids[i])]));
      min_sq[i] = sq;
      if (sq > far_sq) {
        far_sq = sq;
        far = i;
      }
    }
    if (far_sq <= 0.0) break;  // all remaining members duplicate a center
    centers.push_back(vectors_[static_cast<size_t>(ids[far])]);
  }
  if (centers.size() < 2) return 1;

  const int k = static_cast<int>(centers.size());
  assignment->assign(n, 0);
  for (int iter = 0; iter < options_.kmeans_iterations; ++iter) {
    // Assign (ties -> lowest center index, so the loop is deterministic).
    for (size_t i = 0; i < n; ++i) {
      const auto& v = vectors_[static_cast<size_t>(ids[i])];
      int best_c = 0;
      double best_sq = SquaredEuclideanDistance(centers[0], v);
      for (int c = 1; c < k; ++c) {
        const double sq = SquaredEuclideanDistanceBounded(centers[static_cast<size_t>(c)], v, best_sq);
        if (sq < best_sq) {
          best_sq = sq;
          best_c = c;
        }
      }
      (*assignment)[i] = best_c;
    }
    if (iter + 1 == options_.kmeans_iterations) break;
    // Update: means over the zero-padded space; empty clusters keep their
    // previous center (farthest-point init makes them rare).
    std::vector<size_t> dims(static_cast<size_t>(k), 0);
    std::vector<size_t> counts(static_cast<size_t>(k), 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>((*assignment)[i]);
      dims[c] = std::max(dims[c], vectors_[static_cast<size_t>(ids[i])].size());
      ++counts[c];
    }
    std::vector<std::vector<double>> next(static_cast<size_t>(k));
    for (int c = 0; c < k; ++c) {
      next[static_cast<size_t>(c)].assign(dims[static_cast<size_t>(c)], 0.0);
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>((*assignment)[i]);
      const auto& v = vectors_[static_cast<size_t>(ids[i])];
      for (size_t d = 0; d < v.size(); ++d) next[c][d] += v[d];
    }
    for (int c = 0; c < k; ++c) {
      const size_t cs = static_cast<size_t>(c);
      if (counts[cs] == 0) {
        next[cs] = centers[cs];
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[cs]);
      for (double& x : next[cs]) x *= inv;
    }
    centers = std::move(next);
  }

  // Compact away empty clusters so callers see contiguous cluster ids.
  std::vector<int> remap(static_cast<size_t>(k), -1);
  int used = 0;
  for (size_t i = 0; i < n; ++i) {
    int& slot = remap[static_cast<size_t>((*assignment)[i])];
    if (slot < 0) slot = used++;
    (*assignment)[i] = slot;
  }
  return used;
}

void VectorIndex::SplitLeaf(int32_t node_id) {
  std::vector<int32_t> ids = nodes_[static_cast<size_t>(node_id)].ids;
  std::vector<int> assignment;
  const int clusters = KMeans(ids, &assignment);
  if (clusters < 2) {
    // Unseparable (typically all-duplicate) members: stay a flat leaf and
    // only re-attempt after the leaf doubles, bounding amortized cost.
    nodes_[static_cast<size_t>(node_id)].retry_split_at = ids.size() * 2;
    return;
  }
  std::vector<std::vector<int32_t>> members(static_cast<size_t>(clusters));
  for (size_t i = 0; i < ids.size(); ++i) {
    members[static_cast<size_t>(assignment[i])].push_back(ids[i]);
  }
  std::vector<int32_t> children;
  children.reserve(static_cast<size_t>(clusters));
  for (int c = 0; c < clusters; ++c) {
    const int32_t child = NewNode();  // may reallocate nodes_
    Node& child_node = nodes_[static_cast<size_t>(child)];
    child_node.ids = std::move(members[static_cast<size_t>(c)]);
    for (int32_t member : child_node.ids) PackMember(&child_node, member);
    SetCentroidAndRadius(&child_node, child_node.ids);
    children.push_back(child);
  }
  Node& node = nodes_[static_cast<size_t>(node_id)];
  node.leaf = false;
  node.ids.clear();
  node.ids.shrink_to_fit();
  node.packed.clear();
  node.packed.shrink_to_fit();
  node.packed_dims.clear();
  node.packed_dims.shrink_to_fit();
  node.children = std::move(children);
  node.retry_split_at = 0;
  PackChildCentroids(&node);
}

int32_t VectorIndex::Insert(std::vector<double> vector) {
  const int32_t id = static_cast<int32_t>(vectors_.size());
  vectors_.push_back(std::move(vector));
  const std::vector<double>& v = vectors_.back();
  if (nodes_.empty()) {
    const int32_t root = NewNode();
    Node& node = nodes_[static_cast<size_t>(root)];
    node.centroid = v;
    node.ids.push_back(id);
    PackMember(&node, id);
    return id;
  }
  int32_t cur = 0;
  for (;;) {
    Node& node = nodes_[static_cast<size_t>(cur)];
    // Every ball on the descent path absorbs the new vector, keeping the
    // invariant that a node's radius covers its whole subtree.
    node.radius =
        std::max(node.radius, EuclideanDistance(v, node.centroid));
    if (node.leaf) break;
    const double* centroid = node.child_centroids.data();
    int32_t best_child = node.children.front();
    double best_sq = SquaredEuclideanDistanceBounded(
        v.data(), v.size(), centroid, node.child_centroid_dims[0],
        std::numeric_limits<double>::infinity());
    centroid += node.child_centroid_dims[0];
    for (size_t c = 1; c < node.children.size(); ++c) {
      const size_t dim = node.child_centroid_dims[c];
      const double sq = SquaredEuclideanDistanceBounded(
          v.data(), v.size(), centroid, dim, best_sq);
      centroid += dim;
      if (sq < best_sq) {
        best_sq = sq;
        best_child = node.children[c];
      }
    }
    cur = best_child;
  }
  Node& leaf = nodes_[static_cast<size_t>(cur)];
  leaf.ids.push_back(id);
  PackMember(&leaf, id);
  const size_t size_now = leaf.ids.size();
  if (size_now > static_cast<size_t>(options_.leaf_capacity) &&
      (leaf.retry_split_at == 0 || size_now >= leaf.retry_split_at)) {
    SplitLeaf(cur);
  }
  return id;
}

void VectorIndex::Clear() {
  vectors_.clear();
  nodes_.clear();
}

double VectorIndex::MinSquaredDistance(const std::vector<double>& query,
                                       size_t id_limit,
                                       QueryStats* stats) const {
  double best_sq = std::numeric_limits<double>::infinity();
  if (nodes_.empty() || id_limit == 0) return best_sq;
  const size_t limit = std::min(id_limit, vectors_.size());
  double best = std::numeric_limits<double>::infinity();  // sqrt(best_sq)

  // Best-first descent on the ball lower bound: once the closest
  // unexplored subtree cannot beat the current best, nothing can.
  using Entry = std::pair<double, int32_t>;  // (lower bound, node id)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  heap.emplace(
      BallLowerBound(EuclideanDistance(query, nodes_[0].centroid),
                     nodes_[0].radius),
      0);
  while (!heap.empty()) {
    const auto [lb, node_id] = heap.top();
    heap.pop();
    if (lb > best) {
      if (stats != nullptr) {
        stats->nodes_pruned += 1 + static_cast<int64_t>(heap.size());
      }
      break;
    }
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    if (stats != nullptr) ++stats->nodes_visited;
    if (node.leaf) {
      const double* data = node.packed.data();
      for (size_t m = 0; m < node.ids.size(); ++m) {
        const size_t dim = node.packed_dims[m];
        const double* member = data;
        data += dim;
        if (static_cast<size_t>(node.ids[m]) >= limit) continue;
        if (stats != nullptr) ++stats->vectors_checked;
        const double sq = SquaredEuclideanDistanceBounded(
            query.data(), query.size(), member, dim, best_sq);
        if (sq < best_sq) {
          best_sq = sq;
          best = std::sqrt(sq);
        }
      }
      continue;
    }
    const double* centroid = node.child_centroids.data();
    for (size_t ci = 0; ci < node.children.size(); ++ci) {
      const int32_t child = node.children[ci];
      const size_t dim = node.child_centroid_dims[ci];
      const double* c_centroid = centroid;
      centroid += dim;
      const double radius = nodes_[static_cast<size_t>(child)].radius;
      // Bounded centroid distance: balls far beyond the prune threshold
      // break out of the kernel after a few coordinates instead of paying
      // the full dimension.
      const double prune_sq = PruneThresholdSquared(best, radius);
      const double csq = SquaredEuclideanDistanceBounded(
          query.data(), query.size(), c_centroid, dim, prune_sq);
      if (csq > prune_sq) {
        if (stats != nullptr) ++stats->nodes_pruned;
        continue;
      }
      const double clb = BallLowerBound(std::sqrt(csq), radius);
      if (clb > best) {
        if (stats != nullptr) ++stats->nodes_pruned;
        continue;
      }
      heap.emplace(clb, child);
    }
  }
  return best_sq;
}

std::vector<VectorIndex::Neighbor> VectorIndex::TopK(
    const std::vector<double>& query, int k, size_t id_limit,
    QueryStats* stats) const {
  std::vector<Neighbor> result;
  if (nodes_.empty() || k <= 0 || id_limit == 0) return result;
  const size_t limit = std::min(id_limit, vectors_.size());
  const size_t want = static_cast<size_t>(k);

  // Worst-first heap over (squared distance, id): the total order that
  // makes the retained set independent of tree shape — among equal
  // distances the lowest ids win.
  auto worse = [](const Neighbor& a, const Neighbor& b) {
    return a.squared_distance != b.squared_distance
               ? a.squared_distance < b.squared_distance
               : a.id < b.id;
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(worse)> kept(
      worse);
  double bound_sq = std::numeric_limits<double>::infinity();
  double bound = std::numeric_limits<double>::infinity();

  using Entry = std::pair<double, int32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  heap.emplace(
      BallLowerBound(EuclideanDistance(query, nodes_[0].centroid),
                     nodes_[0].radius),
      0);
  while (!heap.empty()) {
    const auto [lb, node_id] = heap.top();
    heap.pop();
    if (kept.size() == want && lb > bound) {
      if (stats != nullptr) {
        stats->nodes_pruned += 1 + static_cast<int64_t>(heap.size());
      }
      break;
    }
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    if (stats != nullptr) ++stats->nodes_visited;
    if (node.leaf) {
      const double* data = node.packed.data();
      for (size_t m = 0; m < node.ids.size(); ++m) {
        const size_t dim = node.packed_dims[m];
        const double* member = data;
        data += dim;
        const int32_t id = node.ids[m];
        if (static_cast<size_t>(id) >= limit) continue;
        if (stats != nullptr) ++stats->vectors_checked;
        const double sq = SquaredEuclideanDistanceBounded(
            query.data(), query.size(), member, dim, bound_sq);
        if (kept.size() < want) {
          // The early-exit bound only tightens once the heap is full; an
          // unfilled heap takes the exact value unconditionally (and the
          // kernel is exact whenever its result is <= bound).
          kept.push(Neighbor{id, sq});
          if (kept.size() == want) {
            bound_sq = kept.top().squared_distance;
            bound = std::sqrt(bound_sq);
          }
          continue;
        }
        const Neighbor& worst = kept.top();
        if (sq < worst.squared_distance ||
            (sq == worst.squared_distance && id < worst.id)) {
          kept.pop();
          kept.push(Neighbor{id, sq});
          bound_sq = kept.top().squared_distance;
          bound = std::sqrt(bound_sq);
        }
      }
      continue;
    }
    const double* centroid = node.child_centroids.data();
    for (size_t ci = 0; ci < node.children.size(); ++ci) {
      const int32_t child = node.children[ci];
      const size_t dim = node.child_centroid_dims[ci];
      const double* c_centroid = centroid;
      centroid += dim;
      const double radius = nodes_[static_cast<size_t>(child)].radius;
      const double prune_sq = kept.size() == want
                                  ? PruneThresholdSquared(bound, radius)
                                  : std::numeric_limits<double>::infinity();
      const double csq = SquaredEuclideanDistanceBounded(
          query.data(), query.size(), c_centroid, dim, prune_sq);
      if (csq > prune_sq) {
        if (stats != nullptr) ++stats->nodes_pruned;
        continue;
      }
      const double clb = BallLowerBound(std::sqrt(csq), radius);
      if (kept.size() == want && clb > bound) {
        if (stats != nullptr) ++stats->nodes_pruned;
        continue;
      }
      heap.emplace(clb, child);
    }
  }

  result.resize(kept.size());
  for (size_t i = kept.size(); i-- > 0;) {
    result[i] = kept.top();
    kept.pop();
  }
  return result;
}

int VectorIndex::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative DFS (the tree is shallow, but avoid recursion anyway).
  int max_depth = 1;
  std::vector<std::pair<int32_t, int>> stack = {{0, 1}};
  while (!stack.empty()) {
    const auto [node_id, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    for (int32_t child : nodes_[static_cast<size_t>(node_id)].children) {
      stack.emplace_back(child, d + 1);
    }
  }
  return max_depth;
}

}  // namespace atena
