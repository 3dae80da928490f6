#ifndef ATENA_EDA_ENVIRONMENT_H_
#define ATENA_EDA_ENVIRONMENT_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "data/dataset.h"
#include "eda/display.h"
#include "eda/display_cache.h"
#include "eda/observation.h"
#include "eda/operation.h"
#include "eda/reward_interface.h"

namespace atena {

/// Environment hyper-parameters.
struct EnvConfig {
  /// Episode length N: number of EDA operations per generated notebook.
  int episode_length = 12;
  /// Number of logarithmic frequency bins B for the filter term parameter.
  int num_term_bins = 8;
  /// How many recent displays one observation concatenates.
  int history_displays = 3;
  /// Maximum grouped attributes (the coherency rules call a deeper grouping
  /// incoherent; the environment hard-caps it).
  int max_group_attrs = 4;
  /// Row cap for per-display statistics: selections larger than this are
  /// stride-sampled when computing observation features and reward
  /// histograms, bounding step cost on large datasets. 0 disables.
  int stats_row_cap = 4096;
  /// Penalty returned for invalid (no-op) actions when a reward signal is
  /// attached; also returned when no signal is attached.
  double invalid_action_penalty = -1.0;
  uint64_t seed = 7;
  /// Display-execution memoization cache (see display_cache.h). Disabled
  /// caches recompute everything; results are bit-identical either way.
  bool display_cache_enabled = true;
  /// Maximum resident cache entries (row sets, grouped results, token
  /// lists, encoded vectors) before LRU eviction.
  size_t display_cache_capacity = size_t{1} << 16;
  /// Byte budget for resident cache values (estimated at insert), 0 =
  /// unbounded. Bounds memory at scaled datasets where a single row set is
  /// megabytes and the entry cap alone would admit gigabytes.
  size_t display_cache_max_bytes = size_t{256} << 20;
  int display_cache_shards = 8;
};

/// Sizes of the parameterized action space. Segment order is the canonical
/// layout used by the twofold network and the flat baselines:
/// [op_type, filter_column, filter_op, filter_bin, group_column, agg_func,
///  agg_column].
struct ActionSpace {
  int num_op_types = kNumOpTypes;
  int num_columns = 0;
  int num_filter_ops = kNumCompareOps;
  int num_term_bins = 0;
  int num_agg_funcs = kNumAggFuncs;

  std::vector<int> SegmentSizes() const;
  int TotalParameterNodes() const;  // pre-output layer width (paper §5)
  /// Count of distinct flattened actions when filter terms are drawn from
  /// `terms_per_column` explicit tokens (the OTS-DRL baseline layout) or
  /// from the frequency bins when `terms_per_column` == 0 (OTS-DRL-B).
  int64_t FlatActionCount(int terms_per_column) const;
};

/// A structured action: the operation type plus an index for every
/// parameter segment (indices for segments not used by `type` are ignored).
struct EnvAction {
  OpType type = OpType::kBack;
  int filter_column = 0;
  int filter_op = 0;
  int filter_bin = 0;
  int group_column = 0;
  int agg_func = 0;
  int agg_column = 0;
};

/// Everything produced by one environment step.
struct StepOutcome {
  std::vector<double> observation;
  double reward = 0.0;
  bool done = false;
  bool valid = true;
  EdaOperation op;  // the concrete executed operation (term resolved)
};

/// One executed step kept in the session log.
struct EdaStep {
  EdaOperation op;
  bool valid = true;
  double reward = 0.0;
};

/// The episodic EDA environment (paper §4.1): a dataset plus the display
/// stack, observation encoding, term binning and step dynamics. Invalid
/// parameter combinations are handled in the Pandas-like spirit of the
/// paper's environment: type-incompatible filter operators fall back to
/// equality; non-numeric aggregation targets fall back to COUNT; truly
/// impossible actions (BACK at the root, empty filter results, duplicate
/// group attributes) are penalized no-ops.
class EdaEnvironment {
 public:
  EdaEnvironment(Dataset dataset, EnvConfig config);

  EdaEnvironment(const EdaEnvironment&) = delete;
  EdaEnvironment& operator=(const EdaEnvironment&) = delete;

  const Dataset& dataset() const { return dataset_; }
  const Table& table() const { return *dataset_.table; }
  const EnvConfig& config() const { return config_; }
  const ActionSpace& action_space() const { return action_space_; }
  const ObservationEncoder& encoder() const { return encoder_; }
  int observation_dim() const { return encoder_.observation_dim(); }

  /// Attaches the reward signal (non-owning; may be null, in which case
  /// rewards are 0 / the invalid penalty).
  void SetRewardSignal(RewardSignal* reward) { reward_ = reward; }

  /// Starts a new episode; returns the initial observation (root display).
  std::vector<double> Reset();

  /// Checks every index of `action` against the action space (the op type,
  /// and the parameter segments the type actually uses) without resolving
  /// or executing anything — consumes no randomness. OutOfRange names the
  /// offending segment and bound.
  Status ValidateAction(const EnvAction& action) const;

  /// Non-OK when the environment cannot accept another step — stepping a
  /// finished episode (the caller must Reset first). Input-dependent for
  /// external drivers (a serving scheduler fed by remote session state),
  /// so it is a recoverable Status, not a fatal check.
  Status CheckReadyToStep() const;

  /// Resolves `action` into a concrete operation (sampling a filter term
  /// from the chosen frequency bin) and executes it. A malformed action
  /// (ValidateAction non-OK) is not resolved at all: it takes the
  /// penalized no-op path — recorded as an invalid BACK, reward
  /// config().invalid_action_penalty — and consumes no randomness, so a
  /// buggy or adversarial action id can never crash an episode or shift
  /// the Rng stream.
  ///
  /// The Try variants return CheckReadyToStep's error instead of aborting
  /// and leave the environment untouched on failure — the recoverable
  /// entry points the serving runtime quarantines on. Step/StepOperation
  /// keep the fatal contract for the training loop, where an
  /// out-of-contract call is a programmer error.
  Result<StepOutcome> TryStep(const EnvAction& action);
  StepOutcome Step(const EnvAction& action);

  /// Executes an explicit concrete operation (used by gold notebooks,
  /// traces replay and the greedy baselines).
  Result<StepOutcome> TryStepOperation(const EdaOperation& op);
  StepOutcome StepOperation(const EdaOperation& op);

  bool done() const { return step_count_ >= config_.episode_length; }
  int step_count() const { return step_count_; }

  /// Chronological displays d_0..d_t (d_0 = root; one entry per step after
  /// that, including no-op steps which repeat their predecessor).
  const std::vector<Display>& display_history() const { return history_; }
  /// Encoded vectors d̂_0..d̂_t matching display_history().
  const std::vector<std::vector<double>>& display_vectors() const {
    return display_vectors_;
  }
  const std::vector<EdaStep>& steps() const { return steps_; }
  const Display& current_display() const { return stack_.back(); }
  /// The display the current one was derived from (d_{t-1}); the root
  /// display when no history exists.
  const Display& previous_display() const;

  /// Resolves a structured action into a concrete operation without
  /// executing it (samples the filter term; applies the fallback rules).
  EdaOperation ResolveAction(const EnvAction& action);

  /// Enumerates concrete candidate operations at the current display for
  /// greedy baselines: every (column, operator) filter with the
  /// `tokens_per_column` most frequent tokens, every group-by/aggregation
  /// combination, and BACK.
  std::vector<EdaOperation> EnumerateOperations(int tokens_per_column) const;

  /// Stride-sampled view of `rows` respecting config().stats_row_cap.
  std::vector<int32_t> CapRows(const std::vector<int32_t>& rows) const;

  /// Cached, zero-copy variant of CapRows for a display: a selection within
  /// the cap is returned as-is (shared storage), larger selections are
  /// stride-sampled once and memoized under the display's row signature.
  RowSet CappedRows(const Display& display) const;

  /// ColumnStats of every column over CappedRows(display), in column
  /// order — the per-attribute observation features (paper §4.1).
  /// Memoized per (row signature, stats_row_cap), so the encoder, the
  /// coherency rules, grouped displays (which keep their parent's rows)
  /// and BACK revisits share one computation per selection.
  std::shared_ptr<const std::vector<ColumnStats>> SelectionStats(
      const Display& display) const;

  /// The display-execution cache; null when disabled by config. All actors
  /// of a ParallelPpoTrainer share one instance.
  const std::shared_ptr<DisplayCache>& display_cache() const {
    return cache_;
  }
  /// Replaces the cache (pass null to disable). Sharing one cache across
  /// environments of the same dataset/config is safe and deterministic:
  /// keys are canonical operation-path signatures and values are exact
  /// kernel outputs.
  void SetDisplayCache(std::shared_ptr<DisplayCache> cache) {
    cache_ = std::move(cache);
  }

  /// Opaque saved session state for speculative evaluation (greedy
  /// baselines try every candidate operation, then roll back).
  struct Snapshot {
    std::vector<Display> stack;
    std::vector<Display> history;
    std::vector<std::vector<double>> display_vectors;
    std::vector<EdaStep> steps;
    int step_count = 0;
  };
  Snapshot SaveSnapshot() const;
  void RestoreSnapshot(const Snapshot& snapshot);

  /// The environment's private Rng stream (filter-term bin sampling).
  /// Training checkpoints capture it at update boundaries and restore it
  /// after replaying the in-flight episode, so a resumed run samples
  /// exactly the terms the uninterrupted run would have (rl/checkpoint.h).
  RngState rng_state() const { return rng_.state(); }
  void set_rng_state(const RngState& state) { rng_.set_state(state); }

 private:
  StepOutcome FinishStep(EdaOperation op, bool valid, bool pushed);
  /// Applies `op` to the current display; returns false for no-op actions.
  bool ApplyOperation(const EdaOperation& op);
  /// Token-frequency list of `column` over the current display's capped
  /// rows, memoized per (row signature, column).
  std::shared_ptr<const std::vector<TokenFreq>> CurrentTokenFrequencies(
      int column) const;
  /// Grouped result of `spec` over `rows`, memoized under `rows_signature`.
  /// Null when grouping fails (status logged at debug level).
  std::shared_ptr<const GroupedResult> CachedGroupAggregate(
      uint64_t rows_signature, const RowSet& rows, const GroupSpec& spec);
  /// Encoded observation vector of `display`, memoized by display key.
  std::vector<double> EncodeDisplayCached(const Display& display);

  Dataset dataset_;
  EnvConfig config_;
  ActionSpace action_space_;
  ObservationEncoder encoder_;
  Rng rng_;
  RewardSignal* reward_ = nullptr;
  std::shared_ptr<DisplayCache> cache_;
  /// Shared root selection [0, num_rows), reused by every Reset.
  RowSet all_rows_;
  uint64_t root_signature_ = 0;

  std::vector<Display> stack_;
  std::vector<Display> history_;
  std::vector<std::vector<double>> display_vectors_;
  std::vector<EdaStep> steps_;
  int step_count_ = 0;
};

/// Uniformly random structured action over `space` (used for warmup
/// corpora and as an exploration fallback).
EnvAction SampleRandomAction(const ActionSpace& space, Rng* rng);

}  // namespace atena

#endif  // ATENA_EDA_ENVIRONMENT_H_
