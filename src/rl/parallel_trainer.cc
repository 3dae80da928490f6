#include "rl/parallel_trainer.h"

#include <algorithm>
#include <numeric>

#include "common/file_io.h"
#include "common/logging.h"

namespace atena {

namespace {

PpoUpdater::Options UpdaterOptions(const TrainerOptions& options) {
  PpoUpdater::Options out;
  out.minibatch_size = options.minibatch_size;
  out.epochs_per_update = options.epochs_per_update;
  out.clip_epsilon = options.clip_epsilon;
  out.entropy_coef = options.entropy_coef;
  out.value_coef = options.value_coef;
  out.learning_rate = options.learning_rate;
  out.max_grad_norm = options.max_grad_norm;
  return out;
}

/// Stepping concurrency: 0 = auto (one thread per actor, capped at the
/// hardware concurrency); explicit values are clamped to [1, actors] — more
/// threads than actors can never run, but explicit values may exceed the
/// core count (tests interleave 4 threads on 1-core machines).
int ResolveThreads(int requested, int num_actors) {
  if (requested <= 0) return ThreadPool::DefaultThreads(num_actors);
  return std::max(1, std::min(requested, num_actors));
}

}  // namespace

ParallelPpoTrainer::ParallelPpoTrainer(std::vector<EdaEnvironment*> envs,
                                       Policy* policy,
                                       TrainerOptions options)
    : envs_(std::move(envs)),
      policy_(policy),
      options_(options),
      // Multi-actor runs decorrelate their exploration stream from the
      // single-env trainer's; the 1-actor instance keeps the plain seed
      // because it IS the single-env trainer and must reproduce its
      // historical output bit for bit.
      rng_(envs_.size() > 1 ? options.seed ^ 0x5151 : options.seed),
      buffer_(envs_.size()),
      updater_(policy, UpdaterOptions(options)) {
  ATENA_CHECK(!envs_.empty()) << "parallel trainer needs at least one env";
  // All actors explore the same dataset, so they share one display cache:
  // operation prefixes recomputed by one actor become hits for the others.
  // Safe because cache keys are canonical operation-path signatures and
  // values are exact kernel outputs (hit ≡ recompute, bit-identical) — the
  // cache is the one mutable structure concurrent actor steps share, and it
  // is internally synchronized (DESIGN.md §9).
  if (const auto& shared_cache = envs_[0]->display_cache()) {
    for (EdaEnvironment* env : envs_) env->SetDisplayCache(shared_cache);
  }
  pool_ = std::make_unique<ThreadPool>(
      ResolveThreads(options_.num_threads, static_cast<int>(envs_.size())));
  if (options_.guardrails.enabled) {
    guard_ = std::make_unique<TrainingGuard>(options_.guardrails);
  }
}

TrainingResult ParallelPpoTrainer::Train() {
  // A stop request raised before (or during a previous) Train belongs to
  // that run; this run only honors requests raised after it starts.
  ClearTrainingStopRequest();
  result_ = TrainingResult{};
  recent_episode_rewards_.clear();

  const size_t n_envs = envs_.size();
  std::vector<ActorState> actors(n_envs);
  for (size_t e = 0; e < n_envs; ++e) {
    actors[e].observation = envs_[e]->Reset();
  }

  int steps_done = 0;
  int updates_done = 0;
  const bool checkpointing = !options_.checkpoint_path.empty();
  if (checkpointing && options_.resume) {
    TryResumeFromCheckpoint(&actors, &steps_done, &updates_done);
  }

  // In-memory snapshot of the last update boundary, refreshed after every
  // update. A stop between lockstep ticks flushes THIS snapshot, not the
  // mid-rollout state: checkpoints are only meaningful at boundaries (the
  // rollout buffer is empty, and network weights / Adam moments — which the
  // snapshot reads live at flush time via policy_->Parameters() — have not
  // moved since). Resuming from it replays the abandoned partial rollout,
  // so the completed run stays bit-identical to an uninterrupted one.
  TrainingCheckpoint boundary;
  if (checkpointing) {
    boundary = BuildCheckpoint(actors, steps_done, updates_done);
  }

  // The guard's rollback target: the last anomaly-free update boundary,
  // with an explicit copy of the network weights (unlike `boundary`, which
  // reads them live at save time — useless once an update has poisoned
  // them). Refreshed after every clean update.
  TrainingCheckpoint last_good;
  if (guard_) {
    last_good = BuildGuardSnapshot(actors, steps_done, updates_done);
  }

  // Per-update rollout length is split evenly across the actors so the
  // update cadence matches the single-env trainer.
  const int per_actor =
      std::max(1, options_.rollout_length / static_cast<int>(n_envs));
  const int obs_dim = envs_[0]->observation_dim();

  Matrix obs_batch;  // reused across ticks; steady state allocates nothing
  std::vector<StepOutcome> outcomes;
  bool stopped_mid_rollout = false;
  while (steps_done < options_.total_steps) {
    buffer_.Clear();
    for (int i = 0; i < per_actor && steps_done < options_.total_steps; ++i) {
      // The last tick of a budget may cover only the first `m` actors —
      // exactly the actors the historical per-step loop would still visit.
      const int m = std::min(static_cast<int>(n_envs),
                             options_.total_steps - steps_done);
      obs_batch.Resize(m, obs_dim);
      for (int e = 0; e < m; ++e) {
        std::copy(actors[static_cast<size_t>(e)].observation.begin(),
                  actors[static_cast<size_t>(e)].observation.end(),
                  obs_batch.RowPtr(e));
      }
      // One batched forward for the whole tick; rows consume rng_ in actor
      // order, bit-identical to per-actor Act calls.
      std::vector<PolicyStep> steps = policy_->ActBatch(obs_batch, &rng_);

      // Step every actor's environment concurrently. Each task touches only
      // its own environment (own display stack, own Rng stream, own reward
      // signal) plus the internally synchronized shared display cache, and
      // writes its result into its own slot — so the outcome of each step
      // is independent of thread scheduling, and bit-identical to the
      // serial loop.
      outcomes.resize(static_cast<size_t>(m));
      auto step_actor = [&](int e) {
        outcomes[static_cast<size_t>(e)] = ApplyAction(
            envs_[static_cast<size_t>(e)], steps[static_cast<size_t>(e)].action);
      };
      pool_->ParallelFor(m, step_actor);

      // Ordered commit: transitions enter the buffer and every
      // floating-point reduction (episode rewards, best-episode record,
      // recent-reward window) runs serially in fixed actor order.
      for (int e = 0; e < m; ++e, ++steps_done) {
        ActorState& actor = actors[static_cast<size_t>(e)];
        PolicyStep& step = steps[static_cast<size_t>(e)];
        StepOutcome& outcome = outcomes[static_cast<size_t>(e)];

        Transition transition;
        transition.observation = std::move(actor.observation);
        transition.action = step.action;
        transition.log_prob = step.log_prob;
        transition.value = step.value;
        transition.reward = outcome.reward;
        transition.episode_end = outcome.done;
        buffer_.Add(static_cast<size_t>(e), std::move(transition));

        actor.episode_reward += outcome.reward;
        actor.episode_ops.push_back(outcome.op);
        actor.observation = std::move(outcome.observation);

        if (outcome.done) {
          ++result_.episodes;
          recent_episode_rewards_.push_back(actor.episode_reward);
          if (recent_episode_rewards_.size() > 50) {
            recent_episode_rewards_.erase(recent_episode_rewards_.begin());
          }
          if (actor.episode_reward > result_.best_episode_reward ||
              result_.best_episode_ops.empty()) {
            result_.best_episode_reward = actor.episode_reward;
            result_.best_episode_ops = actor.episode_ops;
          }
          actor.episode_reward = 0.0;
          actor.episode_ops.clear();
          actor.observation = envs_[static_cast<size_t>(e)]->Reset();
        }
      }

      // Between-tick stop poll: SIGINT latency is bounded by one lockstep
      // tick, not one full rollout. The partial rollout is abandoned — the
      // flushed checkpoint is the last update boundary, and resume replays
      // the rollout from there. A stop raised on the budget's final tick
      // falls through so the closing update still runs, exactly as an
      // uninterrupted run would.
      if (TrainingStopRequested() && steps_done < options_.total_steps) {
        stopped_mid_rollout = true;
        break;
      }
    }
    if (stopped_mid_rollout) {
      if (checkpointing) WriteCheckpoint(boundary);
      result_.interrupted = true;
      ATENA_LOG(kInfo) << "training interrupted mid-rollout at step "
                       << steps_done << (checkpointing
                                             ? ", checkpoint flushed at update "
                                             : " (update ")
                       << updates_done << (checkpointing ? "" : ")");
      break;
    }

    // Bootstrap tail values for every stream that ended mid-episode, again
    // with a single batched (greedy, rng-free) forward.
    std::vector<double> bootstrap(n_envs, 0.0);
    std::vector<size_t> pending;
    for (size_t e = 0; e < n_envs; ++e) {
      if (buffer_.StreamNeedsBootstrap(e)) pending.push_back(e);
    }
    if (!pending.empty()) {
      Matrix probe(static_cast<int>(pending.size()), obs_dim);
      for (size_t k = 0; k < pending.size(); ++k) {
        std::copy(actors[pending[k]].observation.begin(),
                  actors[pending[k]].observation.end(),
                  probe.RowPtr(static_cast<int>(k)));
      }
      std::vector<PolicyStep> probes = policy_->ActBatch(probe, nullptr);
      for (size_t k = 0; k < pending.size(); ++k) {
        bootstrap[pending[k]] = probes[k].value;
      }
    }
    UpdateStats stats = updater_.Update(
        buffer_.ComputeGae(bootstrap, options_.gamma, options_.gae_lambda),
        &rng_);

    const bool has_reward = !recent_episode_rewards_.empty();
    const double mean_reward =
        !has_reward ? 0.0
                    : std::accumulate(recent_episode_rewards_.begin(),
                                      recent_episode_rewards_.end(), 0.0) /
                          static_cast<double>(recent_episode_rewards_.size());

    // Serial post-update guard hook (DESIGN.md §10). On an anomaly the
    // update that just ran — weights, Adam moments, Rng draws, rollout
    // progress, everything — is undone by re-applying the last-good
    // snapshot, the learning rate is backed off, and the loop re-collects
    // the rollout from the rollback point with the checkpointed Rng
    // streams (deterministically: a crash-resume from the persisted guard
    // state replays the identical recovery).
    if (guard_) {
      GuardTrigger trigger =
          guard_->Check(updates_done, stats, mean_reward, has_reward);
      if (trigger != GuardTrigger::kNone) {
        Status verdict =
            guard_->OnAnomaly(trigger, updates_done, stats, mean_reward);
        ApplyCheckpoint(last_good, &actors, &steps_done, &updates_done);
        updater_.SetLearningRateScale(guard_->lr_scale());
        if (checkpointing) {
          boundary = BuildCheckpoint(actors, steps_done, updates_done);
          WriteCheckpoint(boundary);
        }
        if (!verdict.ok()) {
          result_.guard_status = verdict;
          ATENA_LOG(kError) << "training aborted by guard: " << verdict;
          break;
        }
        continue;
      }
    }

    CurvePoint point;
    point.step = steps_done;
    point.mean_episode_reward = mean_reward;
    result_.curve.push_back(point);
    if (progress_) progress_(point);

    ++updates_done;
    if (guard_) {
      guard_->NoteGoodUpdate(updates_done);
      last_good = BuildGuardSnapshot(actors, steps_done, updates_done);
    }
    bool saved_this_update = false;
    if (checkpointing) {
      boundary = BuildCheckpoint(actors, steps_done, updates_done);
      if (options_.checkpoint_every_updates > 0 &&
          updates_done % options_.checkpoint_every_updates == 0) {
        WriteCheckpoint(boundary);
        saved_this_update = true;
      }
    }
    // Cooperative interruption (SIGINT in the examples): flush a final
    // snapshot and hand back the partial result. Resuming from that
    // snapshot continues the run bit-identically.
    if (TrainingStopRequested()) {
      if (checkpointing && !saved_this_update) WriteCheckpoint(boundary);
      result_.interrupted = true;
      ATENA_LOG(kInfo) << "training interrupted at step " << steps_done
                       << " (update " << updates_done << ")"
                       << (checkpointing ? ", checkpoint flushed" : "");
      break;
    }
  }

  result_.final_mean_reward =
      result_.curve.empty() ? 0.0 : result_.curve.back().mean_episode_reward;
  if (guard_) result_.guard = guard_->summary();
  // A guard abort skips the final evaluation like an interruption does:
  // the result carries the rolled-back (all-finite) weights' progress and
  // the structured guard_status.
  if (result_.interrupted || !result_.guard_status.ok()) return result_;

  // Final evaluation on the first actor's environment: the published
  // notebook should reflect the trained policy, so the best of
  // `final_eval_episodes` post-training episodes competes with the best
  // episode seen during training.
  for (int episode = 0; episode < options_.final_eval_episodes; ++episode) {
    std::vector<double> obs = envs_[0]->Reset();
    double reward = 0.0;
    std::vector<EdaOperation> ops;
    while (!envs_[0]->done()) {
      PolicyStep step = policy_->Act(obs, &rng_);
      StepOutcome outcome = ApplyAction(envs_[0], step.action);
      reward += outcome.reward;
      ops.push_back(outcome.op);
      obs = std::move(outcome.observation);
    }
    if (reward > result_.best_episode_reward) {
      result_.best_episode_reward = reward;
      result_.best_episode_ops = std::move(ops);
    }
  }
  return result_;
}

TrainingCheckpoint ParallelPpoTrainer::BuildCheckpoint(
    const std::vector<ActorState>& actors, int steps_done,
    int updates_done) const {
  TrainingCheckpoint ckpt;
  ckpt.steps_done = steps_done;
  ckpt.updates_done = updates_done;
  ckpt.trainer_rng = rng_.state();
  const Adam* adam = updater_.optimizer();
  ckpt.adam_step = adam->step_count();
  ckpt.adam_m = adam->first_moments();
  ckpt.adam_v = adam->second_moments();
  ckpt.curve = result_.curve;
  ckpt.recent_episode_rewards = recent_episode_rewards_;
  ckpt.best_episode_ops = result_.best_episode_ops;
  ckpt.best_episode_reward = result_.best_episode_reward;
  ckpt.episodes = result_.episodes;
  ckpt.actors.reserve(actors.size());
  for (size_t e = 0; e < actors.size(); ++e) {
    ActorCheckpoint actor;
    actor.env_seed = envs_[e]->config().seed;
    actor.env_rng = envs_[e]->rng_state();
    actor.episode_reward = actors[e].episode_reward;
    actor.episode_ops = actors[e].episode_ops;
    ckpt.actors.push_back(std::move(actor));
  }
  if (guard_) ckpt.guard = guard_->checkpoint_state();
  return ckpt;
}

TrainingCheckpoint ParallelPpoTrainer::BuildGuardSnapshot(
    const std::vector<ActorState>& actors, int steps_done,
    int updates_done) const {
  TrainingCheckpoint ckpt = BuildCheckpoint(actors, steps_done, updates_done);
  const std::vector<Parameter*> params = policy_->Parameters();
  ckpt.param_values.reserve(params.size());
  for (const Parameter* p : params) ckpt.param_values.push_back(p->value);
  return ckpt;
}

void ParallelPpoTrainer::ApplyCheckpoint(const TrainingCheckpoint& ckpt,
                                         std::vector<ActorState>* actors,
                                         int* steps_done, int* updates_done) {
  // Commit: network weights, optimizer moments, trainer rng and progress.
  std::vector<Parameter*> params = policy_->Parameters();
  ATENA_CHECK(ckpt.param_values.size() == params.size())
      << "checkpoint param count " << ckpt.param_values.size()
      << " does not match network " << params.size();
  for (size_t k = 0; k < params.size(); ++k) {
    params[k]->value = ckpt.param_values[k];
  }
  updater_.optimizer()->SetState(ckpt.adam_step, ckpt.adam_m, ckpt.adam_v);
  rng_.set_state(ckpt.trainer_rng);
  result_.curve = ckpt.curve;
  result_.best_episode_ops = ckpt.best_episode_ops;
  result_.best_episode_reward = ckpt.best_episode_reward;
  result_.episodes = ckpt.episodes;
  recent_episode_rewards_ = ckpt.recent_episode_rewards;

  // Rebuild each environment's mid-episode state by replaying the resolved
  // operations of the in-flight episode. Replay goes through StepOperation,
  // which consumes no randomness, and the env Rng stream is restored
  // afterwards — so the next sampled filter term is exactly the one the
  // snapshotted run would have drawn.
  for (size_t e = 0; e < envs_.size(); ++e) {
    ActorState& actor = (*actors)[e];
    actor.observation = envs_[e]->Reset();
    for (const EdaOperation& op : ckpt.actors[e].episode_ops) {
      StepOutcome outcome = envs_[e]->StepOperation(op);
      actor.observation = std::move(outcome.observation);
    }
    envs_[e]->set_rng_state(ckpt.actors[e].env_rng);
    actor.episode_reward = ckpt.actors[e].episode_reward;
    actor.episode_ops = ckpt.actors[e].episode_ops;
  }

  *steps_done = ckpt.steps_done;
  *updates_done = ckpt.updates_done;
}

void ParallelPpoTrainer::WriteCheckpoint(const TrainingCheckpoint& ckpt) const {
  Status status = SaveTrainingCheckpoint(options_.checkpoint_path,
                                         policy_->Parameters(), ckpt);
  if (!status.ok()) {
    // A failing disk should not abort training that may still complete (or
    // reach a healthier later snapshot) in memory.
    ATENA_LOG(kWarning) << "checkpoint save failed: " << status;
  } else {
    ATENA_LOG(kDebug) << "checkpoint written to " << options_.checkpoint_path
                      << " at step " << ckpt.steps_done;
  }
}

bool ParallelPpoTrainer::TryResumeFromCheckpoint(
    std::vector<ActorState>* actors, int* steps_done, int* updates_done) {
  const std::string& path = options_.checkpoint_path;
  if (!FileExists(path) && !FileExists(path + ".prev")) {
    ATENA_LOG(kInfo) << "no checkpoint at " << path << ", starting fresh";
    return false;
  }
  std::vector<Parameter*> params = policy_->Parameters();
  TrainingCheckpoint ckpt;
  CheckpointLoadInfo info;
  Status status = LoadTrainingCheckpoint(path, params, &ckpt, &info);
  if (!status.ok()) {
    ATENA_LOG(kWarning) << "resume failed, starting fresh: " << status;
    return false;
  }
  if (info.recovered_from_prev) {
    ATENA_LOG(kWarning) << "checkpoint " << path
                        << " unreadable, recovered from .prev ("
                        << info.primary_error << ")";
  }

  // Validate the snapshot against this trainer's configuration before
  // touching any state, so a mismatched checkpoint can never leave the
  // network or environments half-restored. The stepping thread count is
  // deliberately NOT part of a checkpoint: any num_threads resumes any
  // snapshot bit-identically (DESIGN.md §9).
  if (ckpt.actors.size() != envs_.size()) {
    ATENA_LOG(kWarning) << "resume failed, starting fresh: checkpoint has "
                        << ckpt.actors.size() << " actors, trainer has "
                        << envs_.size();
    return false;
  }
  for (size_t e = 0; e < envs_.size(); ++e) {
    if (ckpt.actors[e].env_seed != envs_[e]->config().seed) {
      ATENA_LOG(kWarning)
          << "resume failed, starting fresh: actor " << e
          << " env seed mismatch (checkpoint " << ckpt.actors[e].env_seed
          << ", trainer " << envs_[e]->config().seed << ")";
      return false;
    }
    const auto& ops = ckpt.actors[e].episode_ops;
    if (static_cast<int>(ops.size()) >= envs_[e]->config().episode_length) {
      ATENA_LOG(kWarning) << "resume failed, starting fresh: actor " << e
                          << " episode has " << ops.size()
                          << " ops but episodes are only "
                          << envs_[e]->config().episode_length << " steps";
      return false;
    }
    for (const EdaOperation& op : ops) {
      if (!OpExecutableOn(envs_[e]->table(), op)) {
        ATENA_LOG(kWarning) << "resume failed, starting fresh: actor " << e
                            << " episode references a column outside the "
                               "dataset schema";
        return false;
      }
    }
  }
  // The best-episode record is replayed too (RunAtena turns it into the
  // published notebook), so its operations face the same schema check as
  // the in-flight episodes — a container recorded against a different
  // dataset must be rejected here, not crash inside a replay.
  for (const EdaOperation& op : ckpt.best_episode_ops) {
    if (!OpExecutableOn(envs_[0]->table(), op)) {
      ATENA_LOG(kWarning) << "resume failed, starting fresh: best episode "
                             "references a column outside the dataset schema";
      return false;
    }
  }

  ApplyCheckpoint(ckpt, actors, steps_done, updates_done);

  // Guard recovery state: a crash mid-recovery resumes with the same spent
  // retry budget and backed-off learning rate it would have kept running
  // with, so the recovered run is bit-identical either way.
  if (guard_) {
    guard_->RestoreCheckpointState(ckpt.guard, ckpt.updates_done);
    updater_.SetLearningRateScale(guard_->lr_scale());
  } else if (!ckpt.guard.IsDefault()) {
    ATENA_LOG(kWarning)
        << "checkpoint carries training-guard state (lr_scale "
        << ckpt.guard.lr_scale << ", " << ckpt.guard.retries_used
        << " retries used) but guardrails are disabled; continuing "
           "unguarded at the full learning rate";
  }

  ATENA_LOG(kInfo) << "resumed from " << path << " at step "
                   << ckpt.steps_done << " (update " << ckpt.updates_done
                   << ", " << result_.episodes << " episodes)";
  return true;
}

}  // namespace atena
