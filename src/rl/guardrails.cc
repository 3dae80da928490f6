#include "rl/guardrails.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_utils.h"

namespace atena {
namespace {

/// Rolling median of a small window. Copies so the window's insertion
/// order (which is the eviction order) is never disturbed.
double Median(const std::vector<double>& window) {
  std::vector<double> sorted = window;
  size_t mid = sorted.size() / 2;
  std::nth_element(sorted.begin(), sorted.begin() + mid, sorted.end());
  double hi = sorted[mid];
  if (sorted.size() % 2 == 1) return hi;
  double lo = *std::max_element(sorted.begin(), sorted.begin() + mid);
  return lo + (hi - lo) / 2.0;
}

void PushWindow(std::vector<double>* window, double value, int capacity) {
  window->push_back(value);
  if (static_cast<int>(window->size()) > capacity) {
    window->erase(window->begin());
  }
}

}  // namespace

const char* GuardTriggerName(GuardTrigger trigger) {
  switch (trigger) {
    case GuardTrigger::kNone:
      return "none";
    case GuardTrigger::kNonFiniteLoss:
      return "non_finite_loss";
    case GuardTrigger::kNonFiniteGradient:
      return "non_finite_gradient";
    case GuardTrigger::kExplodingGradient:
      return "exploding_gradient";
    case GuardTrigger::kEntropyCollapse:
      return "entropy_collapse";
    case GuardTrigger::kRewardDivergence:
      return "reward_divergence";
  }
  return "unknown";
}

TrainingGuard::TrainingGuard(GuardrailOptions options)
    : options_(std::move(options)), log_(options_.health_log_path) {}

GuardTrigger TrainingGuard::Check(int update_index, const UpdateStats& stats,
                                  double mean_episode_reward,
                                  bool has_reward) {
  (void)update_index;
  // Detection order is severity order: a NaN loss usually implies NaN
  // gradients too, and naming the most upstream symptom makes the health
  // log actionable.
  if (!std::isfinite(stats.policy_loss) || !std::isfinite(stats.value_loss) ||
      !std::isfinite(stats.entropy)) {
    return GuardTrigger::kNonFiniteLoss;
  }
  if (!std::isfinite(stats.grad_norm_max) || stats.nonfinite_grad_values > 0) {
    return GuardTrigger::kNonFiniteGradient;
  }
  if (stats.grad_norm_max > options_.grad_norm_abs_max) {
    return GuardTrigger::kExplodingGradient;
  }
  if (static_cast<int>(grad_norms_.size()) >= options_.grad_norm_window) {
    double median = Median(grad_norms_);
    if (median > 0.0 &&
        stats.grad_norm_max > options_.grad_norm_factor * median) {
      return GuardTrigger::kExplodingGradient;
    }
  }
  if (stats.minibatches > 0 && stats.entropy < options_.entropy_floor) {
    return GuardTrigger::kEntropyCollapse;
  }
  if (has_reward) {
    if (static_cast<int>(rewards_.size()) >= options_.reward_window) {
      double median = Median(rewards_);
      double drop = std::max(options_.reward_drop_abs,
                             options_.reward_drop_frac * std::fabs(median));
      if (mean_episode_reward < median - drop) {
        ++reward_strikes_;
        if (reward_strikes_ >= options_.reward_patience) {
          return GuardTrigger::kRewardDivergence;
        }
      } else {
        reward_strikes_ = 0;
      }
    }
    // A divergence strike still counts as a clean update until patience
    // runs out, so its reward feeds the window like any other.
    PushWindow(&rewards_, mean_episode_reward, options_.reward_window);
  }
  PushWindow(&grad_norms_, stats.grad_norm_max, options_.grad_norm_window);
  return GuardTrigger::kNone;
}

void TrainingGuard::NoteGoodUpdate(int update_index) {
  state_.last_good_update = update_index;
}

Status TrainingGuard::OnAnomaly(GuardTrigger trigger, int update_index,
                                const UpdateStats& stats,
                                double mean_episode_reward) {
  // Whatever happens next, the anomalous stretch must not poison the
  // detectors: the retried (or crash-resumed) run re-grows the windows
  // from the rollback point, which keeps both paths bit-identical.
  grad_norms_.clear();
  rewards_.clear();
  reward_strikes_ = 0;

  if (state_.retries_used >= options_.max_retries) {
    AppendEvent(trigger, update_index, stats, mean_episode_reward, "abort");
    return Status::ResourceExhausted(
        std::string("training guard: ") + GuardTriggerName(trigger) +
        " at update " + std::to_string(update_index) + " with retry budget (" +
        std::to_string(options_.max_retries) +
        ") exhausted; weights rolled back to update " +
        std::to_string(state_.last_good_update));
  }
  ++state_.retries_used;
  state_.lr_scale *= options_.lr_backoff;
  AppendEvent(trigger, update_index, stats, mean_episode_reward, "rollback");
  ATENA_LOG(kWarning) << "training guard: " << GuardTriggerName(trigger)
                      << " at update " << update_index
                      << "; rolling back to update "
                      << state_.last_good_update << " (retry "
                      << state_.retries_used << "/" << options_.max_retries
                      << ", lr_scale " << state_.lr_scale << ")";
  return Status::OK();
}

void TrainingGuard::RestoreCheckpointState(const GuardCheckpointState& state,
                                           int resumed_update) {
  state_ = state;
  if (state_.last_good_update == 0) {
    state_.last_good_update = resumed_update;
  }
  // Resuming clears the windows just like a rollback does — the interrupted
  // rollout never completed an update, so there is nothing valid to keep —
  // which is exactly why crash-mid-recovery resumes bit-identically.
  grad_norms_.clear();
  rewards_.clear();
  reward_strikes_ = 0;
  if (state_.events_logged > 0) log_.Continue();
}

GuardrailSummary TrainingGuard::summary() const {
  GuardrailSummary out;
  out.events = state_.events_logged;
  out.rollbacks = state_.retries_used;
  out.lr_scale = state_.lr_scale;
  return out;
}

void TrainingGuard::AppendEvent(GuardTrigger trigger, int update_index,
                                const UpdateStats& stats,
                                double mean_episode_reward,
                                const char* action) {
  ++state_.events_logged;
  if (!log_.enabled()) return;
  std::string fields;
  fields += "\"update\":";
  fields += std::to_string(update_index);
  fields += ",\"trigger\":\"";
  fields += GuardTriggerName(trigger);
  fields += "\",\"policy_loss\":";
  fields += JsonNumber(stats.policy_loss);
  fields += ",\"value_loss\":";
  fields += JsonNumber(stats.value_loss);
  fields += ",\"entropy\":";
  fields += JsonNumber(stats.entropy);
  fields += ",\"grad_norm_max\":";
  fields += JsonNumber(stats.grad_norm_max);
  fields += ",\"nonfinite_grad_values\":";
  fields += std::to_string(stats.nonfinite_grad_values);
  fields += ",\"mean_episode_reward\":";
  fields += JsonNumber(mean_episode_reward);
  fields += ",\"action\":\"";
  fields += action;
  fields += "\",\"last_good_update\":";
  fields += std::to_string(state_.last_good_update);
  fields += ",\"retries_used\":";
  fields += std::to_string(state_.retries_used);
  fields += ",\"lr_scale\":";
  fields += JsonNumber(state_.lr_scale);
  log_.Append("guard", fields);
}

}  // namespace atena
