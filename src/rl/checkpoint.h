#ifndef ATENA_RL_CHECKPOINT_H_
#define ATENA_RL_CHECKPOINT_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "eda/operation.h"
#include "nn/matrix.h"
#include "nn/parameter.h"
#include "rl/trainer.h"

namespace atena {

/// Durable training checkpoints — the `ATENA-CKPT v3` container.
///
/// A checkpoint captures *everything* ParallelPpoTrainer::Train needs to
/// continue a run bit-identically after a crash or interruption: the
/// network weights (the weight file's parameter section), the
/// Adam moments and step count that a bare weight file silently loses, the
/// trainer's rollout position and Rng stream, the learning curve and
/// best-episode record accumulated so far, and — per actor — the
/// environment seed, the environment's Rng stream, and the in-flight
/// episode's resolved operations (replayed on resume to rebuild the display
/// stack deterministically without consuming any randomness).
///
/// The payload is written and read through the record codec the serving
/// journal and the weight file use (common/record_codec.h), so every
/// double is stored as its exact bit pattern. On disk it travels inside a
/// CRC32-checksummed frame (common/file_io.h) and is written with atomic
/// rotation: the previous good snapshot survives at `<path>.prev` until a
/// new one is fully durable, so a crash at any byte offset of a save
/// leaves at least one loadable checkpoint. See DESIGN.md §8 for the
/// layout and failure model.

/// Snapshot of one actor's in-flight episode at an update boundary.
struct ActorCheckpoint {
  /// The actor's environment seed (EnvConfig::seed), recorded so a resume
  /// against differently-seeded environments is rejected instead of
  /// silently diverging.
  uint64_t env_seed = 0;
  /// The environment's private Rng stream (filter-term bin sampling).
  RngState env_rng;
  double episode_reward = 0.0;
  /// Resolved operations of the unfinished episode, in execution order.
  std::vector<EdaOperation> episode_ops;
};

/// In-memory image of one ATENA-CKPT v3 snapshot.
struct TrainingCheckpoint {
  /// Rollout position: environment steps completed across all actors.
  int steps_done = 0;
  /// Policy updates completed (drives the checkpoint cadence).
  int updates_done = 0;
  /// The trainer's Rng stream (action sampling + PPO epoch shuffles).
  RngState trainer_rng;

  /// Adam state. Empty moment vectors mean the optimizer had not stepped
  /// yet when the snapshot was taken.
  int64_t adam_step = 0;
  std::vector<Matrix> adam_m;
  std::vector<Matrix> adam_v;

  /// Network weights, positionally matching the parameter list. Filled by
  /// LoadTrainingCheckpoint (already validated against the network);
  /// ignored by SaveTrainingCheckpoint, which serializes the live
  /// parameters it is given instead.
  std::vector<Matrix> param_values;

  /// Partial TrainingResult state accumulated so far.
  std::vector<CurvePoint> curve;
  std::vector<double> recent_episode_rewards;
  std::vector<EdaOperation> best_episode_ops;
  double best_episode_reward = 0.0;
  int episodes = 0;

  std::vector<ActorCheckpoint> actors;

  /// Training-guard recovery state (rl/guardrails.h). Serialized as an
  /// optional section only when non-default — i.e. only once a guard event
  /// has actually occurred — so checkpoints from anomaly-free runs stay
  /// byte-identical whether guardrails were enabled or not.
  GuardCheckpointState guard;
};

/// Renders the checkpoint payload (the bytes inside the checksummed frame).
/// Exposed for tests; production code uses SaveTrainingCheckpoint.
std::string EncodeCheckpointPayload(const std::vector<Parameter*>& params,
                                    const TrainingCheckpoint& ckpt);

/// Parses a payload produced by EncodeCheckpointPayload, validating the
/// parameter section against `params` (count/names/shapes) and the
/// Adam moments against the same shapes. Everything is staged into `*out`;
/// neither `params` nor any optimizer is touched, so a failed load can
/// never leave a network half-restored.
Status DecodeCheckpointPayload(const std::string& payload,
                               const std::vector<Parameter*>& params,
                               const std::string& source,
                               TrainingCheckpoint* out);

/// Durably writes `ckpt` + the live `params` to `path` with rotation:
///   1. the new snapshot is written to `path + ".new"` (atomic temp+rename
///      inside, fsynced),
///   2. an existing `path` is renamed to `path + ".prev"`,
///   3. `path + ".new"` is renamed to `path`.
/// A crash between any two steps leaves either the old snapshot at `path`,
/// or the old at `.prev` and the new at `path`/`.new` — never zero
/// recoverable snapshots once a first save has completed.
Status SaveTrainingCheckpoint(const std::string& path,
                              const std::vector<Parameter*>& params,
                              const TrainingCheckpoint& ckpt);

/// Details of a load, for logging.
struct CheckpointLoadInfo {
  /// True when `path` itself was unreadable/corrupt and the snapshot came
  /// from `path + ".prev"`.
  bool recovered_from_prev = false;
  /// Why `path` was rejected, when recovered_from_prev is true.
  std::string primary_error;
};

/// Loads the newest readable snapshot: tries `path`, then falls back to
/// `path + ".prev"` when the primary is missing, truncated, bit-rotted
/// (CRC), or unparsable. Returns non-OK only when no snapshot can be
/// recovered. On success `out` holds fully validated state (see
/// DecodeCheckpointPayload); on failure nothing is modified.
Status LoadTrainingCheckpoint(const std::string& path,
                              const std::vector<Parameter*>& params,
                              TrainingCheckpoint* out,
                              CheckpointLoadInfo* info = nullptr);

/// True when `op` only references columns that exist in `table` — the one
/// structural property executing a container-sourced operation relies on
/// (enum ranges are already validated by the payload decoder). Checkpoint
/// resume uses it to reject — instead of execute — operations from a
/// container recorded against a different schema, which would otherwise
/// index columns out of bounds.
bool OpExecutableOn(const Table& table, const EdaOperation& op);

/// Loads ONLY the network weights from `path` into `params`, accepting
/// either container this project writes, chosen by its magic line:
///  - a bare ATENA-NN v3 weight file (nn/serialization.h, LoadParameters),
///    or
///  - a full ATENA-CKPT v3 training checkpoint, whose parameter section is
///    used (with the same `.prev` fallback as LoadTrainingCheckpoint when
///    the primary is corrupt).
/// Both are CRC-framed, so a truncated or corrupted file is refused.
/// The container's architecture is validated against the constructed
/// network (parameter count, names, shapes): a policy built with different
/// hidden sizes or over a different dataset schema fails with a
/// descriptive Status naming the first mismatch — never undefined
/// behavior — and `params` is untouched on any failure. This is the
/// serving runtime's load path (src/serve/snapshot.h).
Status LoadPolicyParameters(const std::string& path,
                            const std::vector<Parameter*>& params);

}  // namespace atena

#endif  // ATENA_RL_CHECKPOINT_H_
