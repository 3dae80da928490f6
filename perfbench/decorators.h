// Forwarding decorators installed at the library's public extension points
// for the traced run. Each one calls straight through to the wrapped object
// and records a span around the call, so a decorated run computes exactly
// what an undecorated one does (the benchmark checks this bit for bit).
#ifndef ATENA_PERFBENCH_DECORATORS_H_
#define ATENA_PERFBENCH_DECORATORS_H_

#include <memory>
#include <vector>

#include "eda/reward_interface.h"
#include "measure.h"
#include "rl/policy.h"
#include "rl/trainer.h"
#include "trace.h"

namespace perfbench {

/// Policy decorator for training. Besides the nn spans it splits training
/// into rollouts and updates: an update starts at the first ForwardBatch
/// after a boundary and ends at the trainer's progress callback
/// (OnUpdateBoundary), which is called once per update.
class TracedPolicy final : public atena::Policy {
 public:
  explicit TracedPolicy(atena::Policy* inner) : inner_(inner) {}

  /// Marks the start of training (the first rollout begins here).
  void OnTrainStart() { OpenRollout(NowNanos()); }
  /// Called from the trainer's progress callback: closes the running update.
  void OnUpdateBoundary() {
    Tracer* tracer = Tracer::Active();
    const int64_t now = NowNanos();
    if (tracer != nullptr && in_update_) {
      tracer->Close(tracer->NextId(), Layer::kRlUpdate, update_start_, now);
    }
    in_update_ = false;
    OpenRollout(now);
  }

  atena::PolicyStep Act(const std::vector<double>& observation,
                        atena::Rng* rng) override {
    ScopedSpan span(Layer::kNnAct);
    return inner_->Act(observation, rng);
  }
  atena::PolicyStep ActGreedy(const std::vector<double>& observation) override {
    ScopedSpan span(Layer::kNnAct);
    return inner_->ActGreedy(observation);
  }
  std::vector<atena::PolicyStep> ActBatch(const atena::Matrix& observations,
                                          atena::Rng* rng) override {
    ScopedSpan span(Layer::kNnActBatch);
    return inner_->ActBatch(observations, rng);
  }
  std::vector<atena::PolicyStep> ActBatch(
      const atena::Matrix& observations,
      const std::vector<atena::Rng*>& rngs) override {
    ScopedSpan span(Layer::kNnActBatch);
    return inner_->ActBatch(observations, rngs);
  }
  atena::BatchEvaluation ForwardBatch(
      const atena::Matrix& observations,
      const std::vector<atena::ActionRecord>& actions) override {
    if (!in_update_) CloseRolloutOpenUpdate();
    ScopedSpan span(Layer::kNnForward);
    return inner_->ForwardBatch(observations, actions);
  }
  void BackwardBatch(const std::vector<atena::SampleGrad>& grads) override {
    ScopedSpan span(Layer::kNnBackward);
    inner_->BackwardBatch(grads);
  }
  std::vector<atena::Parameter*> Parameters() override {
    return inner_->Parameters();
  }
  void PrepareForServing() override { inner_->PrepareForServing(); }

 private:
  void OpenRollout(int64_t now) {
    rollout_start_ = now;
    Tracer* tracer = Tracer::Active();
    if (tracer == nullptr) return;
    // Reward spans on the stepping threads hang off the running rollout.
    rollout_id_ = tracer->NextId();
    tracer->SetAmbient(rollout_id_);
  }
  void CloseRolloutOpenUpdate() {
    const int64_t now = NowNanos();
    Tracer* tracer = Tracer::Active();
    if (tracer != nullptr) {
      tracer->Close(rollout_id_, Layer::kRlRollout, rollout_start_, now);
      tracer->SetAmbient(0);
    }
    in_update_ = true;
    update_start_ = now;
  }

  atena::Policy* inner_;
  bool in_update_ = false;
  int64_t rollout_start_ = 0;
  int64_t update_start_ = 0;
  uint32_t rollout_id_ = 0;
};

/// Reward decorator handed out by the reward factory (serving) or attached
/// to each training actor's environment. Compute runs on worker threads;
/// spans go to each thread's own buffer.
class TracedReward final : public atena::RewardSignal {
 public:
  explicit TracedReward(std::shared_ptr<atena::RewardSignal> inner)
      : inner_(std::move(inner)) {}

  double Compute(const atena::RewardContext& context) override {
    ScopedSpan span(Layer::kReward);
    return inner_->Compute(context);
  }
  void SetDegradedMode(bool degraded) override {
    inner_->SetDegradedMode(degraded);
  }

 private:
  std::shared_ptr<atena::RewardSignal> inner_;
};

}  // namespace perfbench

#endif  // ATENA_PERFBENCH_DECORATORS_H_
