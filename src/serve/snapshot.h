#ifndef ATENA_SERVE_SNAPSHOT_H_
#define ATENA_SERVE_SNAPSHOT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/twofold_policy.h"
#include "data/dataset.h"
#include "eda/environment.h"

namespace atena {

/// What a PolicySnapshot is built from: the environment configuration the
/// policy was trained under (the observation layout depends on
/// history_displays / num_term_bins, so serving must mirror it) and the
/// network architecture.
struct SnapshotOptions {
  EnvConfig env;
  TwofoldPolicy::Options policy;
};

/// An immutable trained policy shared by every session of a serving
/// runtime (DESIGN.md §11).
///
/// The snapshot owns one TwofoldPolicy whose weights are written exactly
/// once — at construction or load — and never again: serving performs no
/// updates, so the parameter store behaves as read-only shared state.
/// Acting through the const TwofoldPolicy::ActBatch overload touches only
/// the caller's Workspace, so any number of threads may act on one
/// snapshot at once, each through its own workspace — the SessionManager
/// acts one row block per pool thread that way. The non-const entry points
/// (Policy::ActBatch, Act, ActGreedy) run on the policy's own acting
/// workspace and stay single-caller.
///
/// The action space and observation dimension are derived from the dataset
/// schema + env config exactly as EdaEnvironment derives them, so a
/// snapshot can size and validate a network without constructing an
/// environment.
class PolicySnapshot {
 public:
  /// Builds a snapshot with freshly initialized weights
  /// (options.policy.seed) — what benches and determinism tests use when
  /// no trained container is needed.
  PolicySnapshot(Dataset dataset, SnapshotOptions options);

  PolicySnapshot(const PolicySnapshot&) = delete;
  PolicySnapshot& operator=(const PolicySnapshot&) = delete;

  const Dataset& dataset() const { return dataset_; }
  const SnapshotOptions& options() const { return options_; }
  const ActionSpace& action_space() const { return action_space_; }
  int observation_dim() const { return observation_dim_; }

  /// The shared network. Its const ActBatch overload may run on several
  /// threads at once, each with its own Workspace (how SessionManager
  /// acts); the non-const acting entry points use the policy's own
  /// workspace, so only one thread may call them at a time.
  TwofoldPolicy* policy() const { return policy_.get(); }

 private:
  Dataset dataset_;
  SnapshotOptions options_;
  ActionSpace action_space_;
  int observation_dim_ = 0;
  std::unique_ptr<TwofoldPolicy> policy_;
};

/// Loads a serving snapshot from `path`, which may be either container
/// this project writes — a bare ATENA-NN parameter file or a full
/// ATENA-CKPT training checkpoint (rl/checkpoint.h, LoadPolicyParameters).
/// The network is first constructed from `dataset` + `options`, then the
/// container's architecture is validated against it (parameter count,
/// names, shapes): a container trained with different hidden sizes or over
/// a different dataset schema fails with a descriptive Status instead of
/// serving garbage actions.
Result<std::shared_ptr<PolicySnapshot>> LoadPolicySnapshot(
    Dataset dataset, SnapshotOptions options, const std::string& path);

}  // namespace atena

#endif  // ATENA_SERVE_SNAPSHOT_H_
