// Workload `train`: the analyst's "dataset → notebook" path on cyber1.
//
// Untraced repeats call RunAtena itself. Traced repeats rebuild the same
// wiring RunAtena uses (4 actor environments, one MakeStandardReward,
// per-actor CompoundReward clones, one TwofoldPolicy, ParallelPpoTrainer)
// with a TracedPolicy and TracedRewards at the extension points, and must
// reproduce RunAtena's best-episode operations, learning curve and final
// weights bit for bit.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/atena.h"
#include "data/registry.h"
#include "decorators.h"
#include "eval/gold.h"
#include "notebook/render.h"
#include "rl/checkpoint.h"
#include "rl/parallel_trainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using atena::AtenaOptions;
using atena::Dataset;

/// Before each training repeat the benchmark times one batch of this many
/// back-to-back set-ups; setup_s is the median over the run of the batches'
/// mean set-up time. One set-up takes 30-50 ms, less than the time the
/// shared host stays in a fast or a slow state, so single set-ups each saw
/// one state and their median flipped between the states. A batch spans
/// ~0.4 s, and one batch per repeat spreads them over the whole run.
constexpr int kSetupsPerBatch = 10;

/// The workload's inputs: cyber1 and the gold notebooks to score against.
struct Inputs {
  Dataset dataset;
  std::vector<std::vector<atena::ViewSignature>> gold;
};

atena::Result<Inputs> SetUp(const AtenaOptions& atena) {
  Inputs inputs;
  {
    ScopedSpan span(Layer::kDataMake);
    ATENA_ASSIGN_OR_RETURN(inputs.dataset, atena::MakeDataset("cyber1"));
  }
  ATENA_ASSIGN_OR_RETURN(auto notebooks,
                         atena::GoldNotebooks(inputs.dataset, atena.env));
  for (const auto& notebook : notebooks) {
    inputs.gold.push_back(atena::NotebookSignatures(notebook));
  }
  return inputs;
}

/// Everything one training repeat produced that must repeat exactly.
struct TrainOutput {
  uint32_t ops_crc = 0;
  uint32_t curve_crc = 0;
  uint32_t weights_crc = 0;  // 0 when the repeat did not capture weights
  double best_reward = 0.0;
  double final_mean_reward = 0.0;
  int episodes = 0;
  Quality quality;
  size_t markdown_bytes = 0;
  bool ok = true;
};

/// The product defaults (compound reward, trainer hyper-parameters, seeds)
/// with 4 actors, stepped on kTrainerThreads. The workload has no generated input besides cyber1, which
/// MakeDataset builds deterministically, so the notebook — and with it
/// eda_sim, precision and mean_reward — is the same on every run: a change
/// that moves them changed behaviour, whatever the seed.
AtenaOptions TrainOptions(const RunOptions& options) {
  AtenaOptions atena;
  atena.num_actors = 4;
  atena.trainer.num_threads = kTrainerThreads;
  if (options.smoke) {
    atena.trainer.total_steps = 384;
    atena.trainer.final_eval_episodes = 2;
  }
  return atena;
}

uint32_t CurveCrc(const atena::TrainingResult& training) {
  std::vector<double> values;
  for (const atena::CurvePoint& point : training.curve) {
    values.push_back(static_cast<double>(point.step));
    values.push_back(point.mean_episode_reward);
  }
  return DoublesCrc(0, values);
}

/// ReplayOperations has already run; renders and scores the notebook.
void Publish(const atena::EdaNotebook& notebook,
             const std::vector<std::vector<atena::ViewSignature>>& gold,
             TrainOutput* out) {
  {
    ScopedSpan span(Layer::kNotebookRender);
    auto markdown = atena::RenderMarkdown(notebook);
    out->ok = out->ok && markdown.ok() && !markdown.value().empty();
    if (markdown.ok()) out->markdown_bytes = markdown.value().size();
  }
  ScopedSpan span(Layer::kEvalScore);
  out->quality = ScoreNotebook(atena::NotebookSignatures(notebook), gold);
}

void RecordTraining(const atena::TrainingResult& training, TrainOutput* out) {
  out->ops_crc = OpsCrc(0, training.best_episode_ops);
  out->curve_crc = CurveCrc(training);
  out->best_reward = training.best_episode_reward;
  out->final_mean_reward = training.final_mean_reward;
  out->episodes = training.episodes;
  out->ok = out->ok && !training.interrupted && training.guard_status.ok() &&
            !training.best_episode_ops.empty();
}

/// The product path: RunAtena, then render and score its notebook. With a
/// non-empty `checkpoint`, the trainer also writes one checkpoint after its
/// last update so the final weights can be compared (CheckpointWeightsCrc).
TrainOutput RunProductPath(
    const Dataset& dataset, AtenaOptions atena,
    const std::vector<std::vector<atena::ViewSignature>>& gold,
    const std::string& checkpoint) {
  TrainOutput out;
  if (!checkpoint.empty()) {
    const int per_update = std::max(
        1, atena.trainer.rollout_length / atena.num_actors) * atena.num_actors;
    atena.trainer.checkpoint_path = checkpoint;
    atena.trainer.checkpoint_every_updates =
        (atena.trainer.total_steps + per_update - 1) / per_update;
  }
  auto result = atena::RunAtena(dataset, atena);
  if (!result.ok()) {
    out.ok = false;
    return out;
  }
  RecordTraining(result.value().training, &out);
  Publish(result.value().notebook, gold, &out);
  return out;
}

/// CRC of the final weights RunProductPath left in `checkpoint`, or 0.
uint32_t CheckpointWeightsCrc(const Dataset& dataset, const AtenaOptions& atena,
                              const std::string& checkpoint) {
  atena::EdaEnvironment env(dataset, atena.env);
  atena::TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                              atena.policy);
  const auto params = policy.Parameters();
  if (!atena::LoadPolicyParameters(checkpoint, params).ok()) return 0;
  return WeightsCrc(params);
}

/// RunAtena's wiring rebuilt with decorators at the extension points.
TrainOutput RunTracedPath(
    const Dataset& dataset, const AtenaOptions& atena,
    const std::vector<std::vector<atena::ViewSignature>>& gold,
    atena::DisplayCacheStats* cache_stats) {
  TrainOutput out;
  std::vector<std::unique_ptr<atena::EdaEnvironment>> envs;
  for (int e = 0; e < atena.num_actors; ++e) {
    atena::EnvConfig config = atena.env;
    config.seed = atena.env.seed + static_cast<uint64_t>(e);
    envs.push_back(std::make_unique<atena::EdaEnvironment>(dataset, config));
  }
  atena::EdaEnvironment& env = *envs[0];
  std::shared_ptr<atena::CompoundReward> reward;
  {
    ScopedSpan span(Layer::kCoherencyBuild);
    auto built = atena::MakeStandardReward(&env, atena.reward);
    if (!built.ok()) {
      out.ok = false;
      return out;
    }
    reward = std::move(built).value();
  }
  std::vector<std::unique_ptr<TracedReward>> rewards;
  rewards.push_back(std::make_unique<TracedReward>(reward));
  for (int e = 1; e < atena.num_actors; ++e) {
    rewards.push_back(std::make_unique<TracedReward>(
        std::make_shared<atena::CompoundReward>(reward->coherency(),
                                                reward->options())));
  }
  std::vector<atena::EdaEnvironment*> env_ptrs;
  for (size_t e = 0; e < envs.size(); ++e) {
    envs[e]->SetRewardSignal(rewards[e].get());
    env_ptrs.push_back(envs[e].get());
  }

  atena::TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                              atena.policy);
  TracedPolicy traced(&policy);
  atena::ParallelPpoTrainer trainer(env_ptrs, &traced, atena.trainer);
  trainer.SetProgressCallback(
      [&traced](const atena::CurvePoint&) { traced.OnUpdateBoundary(); });
  atena::TrainingResult training;
  {
    ScopedSpan span(Layer::kTrainRun);
    traced.OnTrainStart();
    training = trainer.Train();
  }
  RecordTraining(training, &out);
  out.weights_crc = WeightsCrc(policy.Parameters());
  *cache_stats = env.display_cache()->Snapshot().totals;

  atena::EdaNotebook notebook;
  {
    ScopedSpan span(Layer::kReplay);
    notebook = atena::ReplayOperations(&env, training.best_episode_ops,
                                       "ATENA");
  }
  Publish(notebook, gold, &out);
  return out;
}

bool SameOutput(const TrainOutput& a, const TrainOutput& b) {
  return a.ops_crc == b.ops_crc && a.curve_crc == b.curve_crc &&
         a.best_reward == b.best_reward &&
         a.final_mean_reward == b.final_mean_reward &&
         a.episodes == b.episodes && a.quality.eda_sim == b.quality.eda_sim &&
         a.quality.precision == b.quality.precision &&
         a.markdown_bytes == b.markdown_bytes;
}

}  // namespace

RunResult RunTrain(const RunOptions& options) {
  RunResult result;
  Tracer tracer;

  // Set-up: the first one's inputs are used; the later ones are timed only.
  const AtenaOptions atena = TrainOptions(options);
  std::vector<double> setup_seconds;
  Inputs inputs;
  auto set_up = [&]() {
    Tracer::Activate(options.trace ? &tracer : nullptr);
    // Kept until the batch is timed, so freeing them is not counted.
    std::vector<Inputs> batch;
    batch.reserve(kSetupsPerBatch);
    const int64_t start = NowNanos();
    for (int i = 0; i < kSetupsPerBatch && result.correct; ++i) {
      auto made = SetUp(atena);
      if (made.ok()) {
        batch.push_back(std::move(made).value());
      } else {
        result.Fail("set-up: " + made.status().message());
      }
    }
    setup_seconds.push_back(Seconds(NowNanos() - start) / kSetupsPerBatch);
    Tracer::Activate(nullptr);
    if (result.correct && inputs.gold.empty()) {
      inputs = std::move(batch.front());
    }
    return result.correct;
  };
  const Dataset& dataset = inputs.dataset;
  const auto& gold = inputs.gold;

  // Timed phase. Untraced runs call RunAtena only; a traced run alternates
  // RunAtena with the decorated wiring (at least one of each) and takes the
  // tracing overhead from the two medians.
  const std::string checkpoint = options.scratch + "/train-final.ckpt";
  std::vector<double> notebook_seconds, traced_seconds;
  std::vector<TrainOutput> plain, traced;
  atena::DisplayCacheStats cache_stats;
  double cpu_seconds = 0.0, plain_wall = 0.0;
  // Peak RSS after set-up and the first training run (later repeats redo
  // the same work).
  double peak_rss_mb = 0.0;
  const int64_t phase_start = NowNanos();
  for (int repeat = 0;; ++repeat) {
    if (!set_up()) return result;
    const bool run_traced = options.trace && repeat % 2 == 1;
    ++result.attempted;
    if (!run_traced) {
      Tracer::Activate(nullptr);
      const double cpu_before = ProcessCpuSeconds();
      const int64_t start = NowNanos();
      // A traced run captures RunAtena's final weights once, to compare
      // them with the decorated wiring's.
      const bool capture = options.trace && plain.empty();
      plain.push_back(
          RunProductPath(dataset, atena, gold, capture ? checkpoint : ""));
      notebook_seconds.push_back(Seconds(NowNanos() - start));
      cpu_seconds += ProcessCpuSeconds() - cpu_before;
      plain_wall += notebook_seconds.back();
      if (capture) {
        plain.back().weights_crc =
            CheckpointWeightsCrc(dataset, atena, checkpoint);
      }
      if (!plain.back().ok) ++result.failed;
    } else {
      Tracer::Activate(&tracer);
      const int64_t start = NowNanos();
      {
        ScopedSpan span(Layer::kRepeat);
        traced.push_back(RunTracedPath(dataset, atena, gold, &cache_stats));
      }
      traced_seconds.push_back(Seconds(NowNanos() - start));
      Tracer::Activate(nullptr);
      if (!traced.back().ok) ++result.failed;
    }
    if (repeat == 0) peak_rss_mb = PeakRssMb();
    const bool enough = Seconds(NowNanos() - phase_start) >= options.seconds;
    if (enough && (!options.trace || !traced.empty())) break;
  }
  Tracer::Activate(nullptr);

  // Correctness: every repeat reproduces the first; the decorated wiring
  // reproduces RunAtena, final weights included.
  for (const TrainOutput& out : plain) {
    if (!SameOutput(out, plain.front())) {
      result.Fail("RunAtena repeats differ");
    }
  }
  for (const TrainOutput& out : traced) {
    if (!SameOutput(out, plain.front())) {
      result.Fail("traced wiring differs from RunAtena");
    }
    if (out.weights_crc != plain.front().weights_crc) {
      result.Fail("traced final weights differ from RunAtena's");
    }
  }
  if (result.failed > 0) result.Fail("a training run failed");
  const TrainOutput& reference = plain.front();
  if (!(reference.quality.eda_sim > 0.0 && reference.quality.eda_sim <= 1.0)) {
    result.Fail("eda_sim outside (0, 1]");
  }
  std::fprintf(stderr,
               "train: %zu RunAtena + %zu traced runs; ops crc %08x, curve "
               "crc %08x, weights crc %08x, best reward %.6f, eda_sim %.6f, "
               "precision %.6f\n",
               plain.size(), traced.size(), reference.ops_crc,
               reference.curve_crc, reference.weights_crc,
               reference.best_reward, reference.quality.eda_sim,
               reference.quality.precision);

  const double steps = atena.trainer.total_steps +
                       atena.trainer.final_eval_episodes *
                           atena.env.episode_length;
  std::vector<double> rates;
  std::fprintf(stderr, "RunAtena s:");
  for (double s : notebook_seconds) {
    rates.push_back(steps / s);
    std::fprintf(stderr, " %.3f", s);
  }
  std::fprintf(stderr, "; set-up s (batch means):");
  for (double s : setup_seconds) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_seconds);
    e2e.steps_per_s = Median(rates);
    e2e.time_to_notebook_s = Median(notebook_seconds);
    e2e.mean_reward = reference.final_mean_reward;
    e2e.eda_sim = reference.quality.eda_sim;
    e2e.precision = reference.quality.precision;
    e2e.peak_rss_mb = peak_rss_mb;
    AddEndToEnd(e2e, &result);
    return result;
  }

  DumpSpans(tracer, options);
  const SpanTable spans(tracer.Collect());
  const double n = static_cast<double>(traced.size());
  PerLayer layers;
  layers.data_make_s = Median(spans.Durations(Layer::kDataMake));
  layers.coherency_build_s = Median(spans.Durations(Layer::kCoherencyBuild));
  layers.rl_rollout_ms = spans.BusySeconds(Layer::kRlRollout) * 1e3 / n;
  layers.rl_update_ms = spans.BusySeconds(Layer::kRlUpdate) * 1e3 / n;
  layers.rl_updates = static_cast<double>(spans.Count(Layer::kRlUpdate)) / n;
  layers.rl_optimizer_ms =
      spans.SelfSeconds(Layer::kRlUpdate,
                        {Layer::kNnForward, Layer::kNnBackward}) *
      1e3 / n;
  layers.rl_train_s = Median(spans.Durations(Layer::kTrainRun));
  layers.nn_act_batch_ms = spans.BusySeconds(Layer::kNnActBatch) * 1e3 / n;
  layers.nn_act_batch_calls =
      static_cast<double>(spans.Count(Layer::kNnActBatch)) / n;
  layers.nn_forward_batch_ms = spans.BusySeconds(Layer::kNnForward) * 1e3 / n;
  layers.nn_backward_batch_ms =
      spans.BusySeconds(Layer::kNnBackward) * 1e3 / n;
  layers.reward_calls = static_cast<double>(spans.Count(Layer::kReward)) / n;
  layers.reward_compute_ms = spans.BusySeconds(Layer::kReward) * 1e3 / n;
  layers.reward_p50_us = Median(spans.Durations(Layer::kReward)) * 1e6;
  layers.eda_cache_hits = static_cast<double>(cache_stats.hits);
  layers.eda_cache_misses = static_cast<double>(cache_stats.misses);
  layers.eda_cache_hit_rate = cache_stats.hit_rate();
  layers.eda_cache_evictions = static_cast<double>(cache_stats.evictions);
  layers.eda_cache_resident_mb =
      static_cast<double>(cache_stats.resident_bytes) / (1024.0 * 1024.0);
  layers.eval_score_ms = Median(spans.Durations(Layer::kEvalScore)) * 1e3;
  layers.notebook_render_ms =
      Median(spans.Durations(Layer::kNotebookRender)) * 1e3;
  layers.common_cpu_util =
      cpu_seconds / (plain_wall * static_cast<double>(HardwareThreads()));
  const double plain_rate = Median(rates);
  const double traced_rate = steps / Median(traced_seconds);
  layers.bench_trace_overhead_pct =
      100.0 * (plain_rate - traced_rate) / plain_rate;
  // What the outside seams cannot attribute: repeat wall time covered by
  // no leaf span (environment stepping and dataframe kernels inside the
  // rollout, GAE and Adam inside the update, trainer bookkeeping).
  layers.bench_unattributed_pct =
      100.0 *
      spans.SelfSeconds(Layer::kRepeat,
                        {Layer::kCoherencyBuild, Layer::kNnActBatch,
                         Layer::kNnForward, Layer::kNnBackward, Layer::kNnAct,
                         Layer::kReward, Layer::kReplay, Layer::kEvalScore,
                         Layer::kNotebookRender}) /
      spans.BusySeconds(Layer::kRepeat);
  AddPerLayer(layers, &result);
  std::filesystem::remove(checkpoint);
  std::filesystem::remove(checkpoint + ".prev");
  return result;
}

}  // namespace perfbench
