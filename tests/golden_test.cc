// Cross-commit behaviour fixtures. Every other bit-identity test compares
// two code paths inside one build, so a change that moves both sides the
// same way passes unnoticed. These digests were recorded once and checked
// in:
//  - a fixed random-action script runs with the full compound reward on
//    every experimental dataset plus one scaled table, and a CRC32 over its
//    encoded display vectors and step rewards must match;
//  - GroupAggregate and TokenFrequencies outputs on every dataset, in
//    output order, with every key, member count and aggregate bit;
//  - short PPO training runs (RunAtena with 1 and 4 actors, the 4-actor run
//    at 1 and 4 stepping threads, and one FlatPolicy run) digest their
//    learning curve, best-episode operations and every final parameter
//    value, which pins the network kernels, the optimizer and the trainer;
//    the RunAtena fixtures also digest the bytes of the ATENA-CKPT file
//    they write, which pins the checkpoint container;
//  - a journaled serving run with the compound reward and forced journal
//    compaction digests its delivered traces, its journal bytes, and a
//    recovery from a mid-run copy of the journal, at 1 and 4 threads;
//  - the Markdown and HTML renderings of every gold notebook and of one
//    RunAtena notebook, which pin grouped result previews and chart labels;
//  - every generator of the Table 2 benchmark at a tiny training budget on
//    one cyber and one flights dataset: notebook operations and A-EDA
//    score bits.
// A mismatch means behaviour changed; if that was intended, the failure
// message prints the new digest to record here.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/factory.h"
#include "baselines/flat_policy.h"
#include "common/file_io.h"
#include "common/random.h"
#include "core/atena.h"
#include "data/registry.h"
#include "dataframe/ops.h"
#include "dataframe/stats.h"
#include "eda/environment.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "eval/view_signature.h"
#include "index/notebook_store.h"
#include "notebook/render.h"
#include "reward/compound.h"
#include "rl/checkpoint.h"
#include "rl/parallel_trainer.h"
#include "rl/trainer.h"
#include "serve/journal.h"
#include "serve/session_manager.h"
#include "serve/snapshot.h"

namespace atena {
namespace {

// Recorded with GCC 12.2.0 (Debian 12.2.0-14) on an x86-64 Intel Xeon
// with AVX-512, CMake RelWithDebInfo (-O2 -g), src/dataframe/kernels.cc at
// -O3 -march=native -ffp-contract=off. A digest that differs only under
// another compiler or target is a finding in its own right: the repo's
// bit-determinism is meant to hold across hosts. Every library and test
// now builds with -ffp-contract=off, so a target with FMA computes the
// same bits, and scripts/check.sh also runs these fixtures from a
// -DCMAKE_CXX_FLAGS=-march=native build. The digests still depend on the
// toolchain through:
//  - the iteration order of std::unordered_map, which the column entropy,
//    the FILTER reward's KL and TokenFrequencies' tie path sum in;
//  - where std::sort places equal elements (tied keys in the exact-key
//    group-by and in TokenFrequencies);
//  - the bits glibc's log, exp and log2 return.
// This host has one compiler and one libm, so these are recorded, not
// tested.
constexpr const char* kRecordedCompiler = "12.2.0";

// With ATENA_GOLDEN_PORTABLE_KERNELS=1 every fixture runs on the nn
// kernels' portable fallback instead of the AVX2 path
// (ForcePortableKernelsForTesting); scripts/check.sh runs the suite that
// way too, since no SIMD dispatch path may move a digest.
class PortableKernelsSwitch : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* flag = std::getenv("ATENA_GOLDEN_PORTABLE_KERNELS");
    if (flag == nullptr || std::string_view(flag) != "1") return;
    ForcePortableKernelsForTesting(true);
    std::fprintf(stderr, "golden_test: portable nn kernels forced\n");
  }
};
::testing::Environment* const kPortableKernelsSwitch =
    ::testing::AddGlobalTestEnvironment(new PortableKernelsSwitch);

struct GoldenFixture {
  const char* dataset;
  int scale;
  uint32_t digest;
};

constexpr GoldenFixture kFixtures[] = {
    {"cyber1", 1, 0xF6CF29C7u},   {"cyber2", 1, 0xEA772DEBu},
    {"cyber3", 1, 0xC5D5B513u},   {"cyber4", 1, 0x1DE8F28Fu},
    {"flights1", 1, 0xF38AD7D1u}, {"flights2", 1, 0x103B8400u},
    {"flights3", 1, 0xC654B0A2u}, {"flights4", 1, 0x936F25F1u},
    {"cyber1", 10, 0x724781D7u},
};

void PrintTo(const GoldenFixture& fixture, std::ostream* os) {
  *os << fixture.dataset << " x" << fixture.scale;
}

constexpr int kEpisodes = 4;
constexpr uint64_t kScriptSeed = 20200614;

template <typename T>
uint32_t PodCrc(uint32_t crc, const T& value) {
  return Crc32Extend(
      crc, std::string_view(reinterpret_cast<const char*>(&value),
                            sizeof(value)));
}

std::string DigestString(uint32_t digest) {
  char text[16];
  std::snprintf(text, sizeof(text), "0x%08Xu", digest);
  return text;
}

uint32_t FileCrc(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
  return Crc32(bytes);
}

/// Runs the fixed script on (id, scale) and digests what it observed.
uint32_t ScriptDigest(const std::string& id, int scale) {
  Dataset dataset = MakeDataset(id, scale).value();
  EnvConfig config;
  EdaEnvironment env(std::move(dataset), config);
  auto reward = MakeStandardReward(&env).value();
  env.SetRewardSignal(reward.get());
  Rng rng(kScriptSeed);
  uint32_t crc = 0;
  for (int episode = 0; episode < kEpisodes; ++episode) {
    env.Reset();
    while (!env.done()) {
      const StepOutcome outcome =
          env.Step(SampleRandomAction(env.action_space(), &rng));
      crc = PodCrc(crc, outcome.reward);
      crc = PodCrc(crc, outcome.valid);
    }
    for (const std::vector<double>& vec : env.display_vectors()) {
      for (double v : vec) crc = PodCrc(crc, v);
    }
  }
  return crc;
}

class GoldenDigestTest : public ::testing::TestWithParam<GoldenFixture> {};

TEST_P(GoldenDigestTest, RandomScriptMatchesRecordedDigest) {
  const GoldenFixture& fixture = GetParam();
  const uint32_t digest = ScriptDigest(fixture.dataset, fixture.scale);
  EXPECT_EQ(digest, fixture.digest)
      << fixture.dataset << " x" << fixture.scale << ": digest "
      << DigestString(digest)
      << " (recorded with GCC " << kRecordedCompiler << ", this build "
      << __VERSION__ << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, GoldenDigestTest, ::testing::ValuesIn(kFixtures),
    [](const ::testing::TestParamInfo<GoldenFixture>& info) {
      return std::string(info.param.dataset) + "_x" +
             std::to_string(info.param.scale);
    });

// ---------------------------------------------------- dataframe outputs

// GroupAggregate orders groups by key and TokenFrequencies orders tokens by
// count then key; where keys tie, the result is what std::sort makes of
// the order the keys were discovered in. These digests pin that order
// together with every key, member count and aggregate bit, on each
// dataset's root selection and on one filtered selection.
struct DataframeFixture {
  const char* dataset;
  int scale;
  uint32_t grouped_digest;
  uint32_t tokens_digest;
};

constexpr DataframeFixture kDataframeFixtures[] = {
    {"cyber1", 1, 0x28F55B36u, 0x9E0724C3u},
    {"cyber2", 1, 0xE3E41739u, 0xEEB4E165u},
    {"cyber3", 1, 0x3BB4CBEAu, 0x554BC775u},
    {"cyber4", 1, 0x457BAF80u, 0x9387AD74u},
    {"flights1", 1, 0xB84343B0u, 0x8F07D499u},
    {"flights2", 1, 0xAD68BD88u, 0xFD19C2EDu},
    {"flights3", 1, 0xD85A39FBu, 0xEA848B64u},
    {"flights4", 1, 0xE636CA69u, 0x66B89E3Cu},
    {"cyber1", 10, 0x45E8C46Bu, 0xD6C006AEu},
};

void PrintTo(const DataframeFixture& fixture, std::ostream* os) {
  *os << fixture.dataset << " x" << fixture.scale;
}

/// A cell as a type tag, a null flag and its value bits or string bytes.
uint32_t ValueCrc(uint32_t crc, const Value& value) {
  crc = PodCrc(crc, value.is_null());
  if (value.is_int()) {
    crc = PodCrc(crc, uint8_t{1});
    crc = PodCrc(crc, value.as_int());
  } else if (value.is_double()) {
    crc = PodCrc(crc, uint8_t{2});
    crc = PodCrc(crc, std::bit_cast<uint64_t>(value.as_double()));
  } else if (value.is_string()) {
    crc = PodCrc(crc, uint8_t{3});
    crc = PodCrc(crc, value.as_string().size());
    crc = Crc32Extend(crc, value.as_string());
  }
  return crc;
}

/// The root selection, and the rows whose first string column differs from
/// its first non-null cell (a scattered, non-identity selection).
std::vector<std::vector<int32_t>> FixtureSelections(const Table& table) {
  std::vector<std::vector<int32_t>> selections{AllRows(table).value()};
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = *table.column(c);
    if (col.type() != DataType::kString) continue;
    for (int64_t r = 0; r < col.length(); ++r) {
      if (col.IsNull(r)) continue;
      selections.push_back(FilterRows(table, selections.front(), c,
                                       CompareOp::kNeq, col.GetValue(r))
                               .value());
      return selections;
    }
  }
  return selections;
}

/// COUNT by every column, AVG of the first numeric column by every column,
/// and COUNT by every adjacent column pair.
std::vector<GroupSpec> FixtureSpecs(const Table& table) {
  int numeric = -1;
  for (int c = 0; c < table.num_columns() && numeric < 0; ++c) {
    if (table.column(c)->type() != DataType::kString) numeric = c;
  }
  std::vector<GroupSpec> specs;
  for (int c = 0; c < table.num_columns(); ++c) {
    specs.push_back({{c}, AggFunc::kCount, -1});
  }
  for (int c = 0; c < table.num_columns(); ++c) {
    specs.push_back({{c}, AggFunc::kAvg, numeric});
  }
  for (int c = 0; c + 1 < table.num_columns(); ++c) {
    specs.push_back({{c, c + 1}, AggFunc::kCount, -1});
  }
  return specs;
}

uint32_t GroupedDigest(const Table& table) {
  uint32_t crc = 0;
  for (const std::vector<int32_t>& rows : FixtureSelections(table)) {
    for (const GroupSpec& spec : FixtureSpecs(table)) {
      const GroupedResult grouped = GroupAggregate(table, rows, spec).value();
      crc = PodCrc(crc, grouped.groups.size());
      for (size_t i = 0; i < grouped.groups.size(); ++i) {
        const Group& g = grouped.groups[i];
        for (size_t j = 0; j < spec.group_columns.size(); ++j) {
          crc = ValueCrc(crc, grouped.Key(table, i, j));
        }
        crc = PodCrc(crc, g.size);
        crc = PodCrc(crc, g.agg_valid);
        crc = PodCrc(crc, std::bit_cast<uint64_t>(g.aggregate));
      }
    }
  }
  return crc;
}

uint32_t TokensDigest(const Table& table) {
  uint32_t crc = 0;
  for (const std::vector<int32_t>& rows : FixtureSelections(table)) {
    for (int c = 0; c < table.num_columns(); ++c) {
      const Column& column = *table.column(c);
      const std::vector<TokenFreq> tokens = TokenFrequencies(column, rows);
      crc = PodCrc(crc, tokens.size());
      for (const TokenFreq& token : tokens) {
        crc = ValueCrc(crc, column.KeyValue(token.key));
        crc = PodCrc(crc, token.count);
      }
    }
  }
  return crc;
}

class GoldenDataframeTest
    : public ::testing::TestWithParam<DataframeFixture> {};

TEST_P(GoldenDataframeTest, GroupedAndTokenOutputsMatchRecordedDigests) {
  const DataframeFixture& fixture = GetParam();
  const Dataset dataset = MakeDataset(fixture.dataset, fixture.scale).value();
  const uint32_t grouped = GroupedDigest(*dataset.table);
  const uint32_t tokens = TokensDigest(*dataset.table);
  EXPECT_EQ(grouped, fixture.grouped_digest)
      << fixture.dataset << " x" << fixture.scale << ": grouped digest "
      << DigestString(grouped) << " (recorded with GCC " << kRecordedCompiler
      << ", this build " << __VERSION__ << ")";
  EXPECT_EQ(tokens, fixture.tokens_digest)
      << fixture.dataset << " x" << fixture.scale << ": tokens digest "
      << DigestString(tokens) << " (recorded with GCC " << kRecordedCompiler
      << ", this build " << __VERSION__ << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, GoldenDataframeTest, ::testing::ValuesIn(kDataframeFixtures),
    [](const ::testing::TestParamInfo<DataframeFixture>& info) {
      return std::string(info.param.dataset) + "_x" +
             std::to_string(info.param.scale);
    });

// ------------------------------------------------------------- training

// Thread count never changes training output or the checkpoint written,
// so both 4-actor fixtures share each digest.
constexpr uint32_t kFourActorDigest = 0x3A746D5Bu;
constexpr uint32_t kFourActorCheckpointDigest = 0x7E1E337Eu;

struct TrainingFixture {
  const char* name;
  int num_actors;
  int num_threads;
  uint32_t digest;
  /// The bytes of the ATENA-CKPT file the run leaves behind.
  uint32_t checkpoint_digest;
};

constexpr TrainingFixture kTrainingFixtures[] = {
    {"OneActor", 1, 1, 0x102FB490u, 0xAD520598u},
    {"FourActorsOneThread", 4, 1, kFourActorDigest,
     kFourActorCheckpointDigest},
    {"FourActorsFourThreads", 4, 4, kFourActorDigest,
     kFourActorCheckpointDigest},
};

void PrintTo(const TrainingFixture& fixture, std::ostream* os) {
  *os << fixture.name;
}

constexpr int kTrainingSteps = 1536;
constexpr int kFinalEvalEpisodes = 4;

/// Digest of what a training run produced: the learning curve, the best
/// episode's operations (as the notebook describes them) and every final
/// parameter value.
uint32_t TrainingDigest(const TrainingResult& training, const Table& table,
                        const std::vector<Parameter*>& params) {
  uint32_t crc = 0;
  for (const CurvePoint& point : training.curve) {
    crc = PodCrc(crc, point.step);
    crc = PodCrc(crc, point.mean_episode_reward);
  }
  for (const EdaOperation& op : training.best_episode_ops) {
    crc = Crc32Extend(crc, op.Describe(table));
  }
  for (const Parameter* p : params) {
    for (double v : p->value.data()) crc = PodCrc(crc, v);
  }
  return crc;
}

/// RunAtena on cyber1 at a small budget. The trainer checkpoints after its
/// last update, and the checkpoint's parameters are the final weights;
/// `checkpoint_digest` receives the digest of the checkpoint file's bytes.
uint32_t AtenaTrainingDigest(const TrainingFixture& fixture,
                             uint32_t* checkpoint_digest) {
  const Dataset dataset = MakeDataset("cyber1").value();
  AtenaOptions options;
  options.num_actors = fixture.num_actors;
  options.trainer.num_threads = fixture.num_threads;
  options.trainer.total_steps = kTrainingSteps;
  options.trainer.final_eval_episodes = kFinalEvalEpisodes;
  const std::string checkpoint = ::testing::TempDir() + "/golden_" +
                                 fixture.name + "_" +
                                 std::to_string(getpid()) + ".ckpt";
  const int per_update = options.trainer.rollout_length / fixture.num_actors *
                         fixture.num_actors;
  options.trainer.checkpoint_path = checkpoint;
  options.trainer.checkpoint_every_updates =
      (kTrainingSteps + per_update - 1) / per_update;
  auto result = RunAtena(dataset, options);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return 0;

  EdaEnvironment env(dataset, options.env);
  TwofoldPolicy policy(env.observation_dim(), env.action_space(),
                       options.policy);
  const Status loaded = LoadPolicyParameters(checkpoint, policy.Parameters());
  *checkpoint_digest = FileCrc(checkpoint);
  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".prev").c_str());
  EXPECT_TRUE(loaded.ok()) << loaded;
  return TrainingDigest(result.value().training, *dataset.table,
                        policy.Parameters());
}

class GoldenTrainingTest : public ::testing::TestWithParam<TrainingFixture> {};

TEST_P(GoldenTrainingTest, RunAtenaMatchesRecordedDigest) {
  const TrainingFixture& fixture = GetParam();
  uint32_t checkpoint = 0;
  const uint32_t digest = AtenaTrainingDigest(fixture, &checkpoint);
  EXPECT_EQ(digest, fixture.digest)
      << fixture.name << ": digest " << DigestString(digest)
      << " (recorded with GCC " << kRecordedCompiler << ", this build "
      << __VERSION__ << ")";
  EXPECT_EQ(checkpoint, fixture.checkpoint_digest)
      << fixture.name << ": checkpoint digest " << DigestString(checkpoint);
}

INSTANTIATE_TEST_SUITE_P(
    RunAtena, GoldenTrainingTest, ::testing::ValuesIn(kTrainingFixtures),
    [](const ::testing::TestParamInfo<TrainingFixture>& info) {
      return std::string(info.param.name);
    });

// The flat-softmax baseline has its own head backward; one short PPO run
// pins it.
constexpr uint32_t kFlatPolicyDigest = 0x811BC526u;

TEST(GoldenFlatPolicyTest, PpoMatchesRecordedDigest) {
  const Dataset dataset = MakeDataset("cyber1").value();
  EnvConfig config;
  EdaEnvironment env(dataset, config);
  auto reward = MakeStandardReward(&env).value();
  env.SetRewardSignal(reward.get());
  FlatPolicy::Options flat_options;
  flat_options.term_mode = FlatPolicy::TermMode::kFrequencyBins;
  FlatPolicy policy(env, flat_options);
  TrainerOptions options;
  options.total_steps = kTrainingSteps / 2;
  options.final_eval_episodes = kFinalEvalEpisodes;
  ParallelPpoTrainer trainer({&env}, &policy, options);
  const TrainingResult training = trainer.Train();
  const uint32_t digest =
      TrainingDigest(training, *dataset.table, policy.Parameters());
  EXPECT_EQ(digest, kFlatPolicyDigest)
      << "FlatPolicy: digest " << DigestString(digest) << " (recorded with GCC "
      << kRecordedCompiler << ", this build " << __VERSION__ << ")";
}

// -------------------------------------------------------------- serving

// The served product: 48 sessions of 24 steps (two 12-step episodes each),
// at most 32 live, alternating greedy and sampled acting, scored by the
// compound reward, registered in a notebook store and journaled with a
// compaction floor low enough to compact mid-run. Thread count never
// changes what is served or journaled, so both fixtures share each digest.
struct ServeDigests {
  /// Delivered traces in session-id order.
  uint32_t traces;
  /// The final journal and its `.prev`.
  uint32_t journal;
  uint32_t journal_prev;
  /// The journal a recovery from the mid-run copy writes at its closing
  /// compaction.
  uint32_t recovered_journal;
};

constexpr ServeDigests kServeDigests = {0xF9F0E36Cu, 0xAA49318Du, 0x0B287C71u,
                                         0x76F8E91Au};

struct ServeFixture {
  const char* name;
  int num_threads;
};

constexpr ServeFixture kServeFixtures[] = {{"OneThread", 1},
                                           {"FourThreads", 4}};

void PrintTo(const ServeFixture& fixture, std::ostream* os) {
  *os << fixture.name;
}

constexpr int kServeLive = 32;
constexpr int kServeSessions = 48;
constexpr int kServeSteps = 24;
constexpr uint64_t kServeSeed = 5150;

SessionConfig ServeSessionAt(int index) {
  SessionConfig config;
  config.seed = kServeSeed + static_cast<uint64_t>(index);
  config.max_steps = kServeSteps;
  config.greedy = index % 2 == 0;
  return config;
}

/// Removes a journal plus the `.prev` and notebook sidecars next to it.
void RemoveJournalFamily(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  for (int64_t seq = 0; seq < 16; ++seq) {
    std::remove(JournalSidecarPath(path, seq).c_str());
  }
}

/// Copies the journal family at `from` to `to`, renaming the sidecars.
void CopyJournalFamily(const std::string& from, const std::string& to) {
  RemoveJournalFamily(to);
  auto copy = [](const std::string& src, const std::string& dst) {
    std::string bytes;
    if (!FileExists(src)) return;
    ASSERT_TRUE(ReadFileToString(src, &bytes).ok()) << src;
    ASSERT_TRUE(AtomicWriteFile(dst, bytes).ok()) << dst;
  };
  copy(from, to);
  copy(from + ".prev", to + ".prev");
  for (int64_t seq = 0; seq < 16; ++seq) {
    copy(JournalSidecarPath(from, seq), JournalSidecarPath(to, seq));
  }
}

uint32_t TracesDigest(const std::map<uint64_t, SessionTrace>& traces,
                      const Table& table) {
  uint32_t crc = 0;
  for (const auto& [id, trace] : traces) {
    for (const ServedStep& step : trace.steps) {
      crc = Crc32Extend(crc, step.op.Describe(table));
      crc = PodCrc(crc, step.valid);
      crc = PodCrc(crc, std::bit_cast<uint64_t>(step.reward));
      crc = PodCrc(crc, step.display_signature);
    }
    crc = PodCrc(crc, std::bit_cast<uint64_t>(trace.total_reward));
  }
  return crc;
}

/// Admits sessions until `live` are running or every session is admitted.
void Refill(SessionManager& manager, int* admitted) {
  while (manager.active_sessions() < kServeLive &&
         *admitted < kServeSessions) {
    ASSERT_TRUE(manager.Admit(ServeSessionAt(*admitted)).ok());
    ++*admitted;
  }
}

/// Ticks, delivers and refills until nothing is live.
void ServeToEnd(SessionManager& manager, int* admitted,
                std::map<uint64_t, SessionTrace>* delivered) {
  while (manager.active_sessions() > 0) {
    manager.Tick();
    for (SessionOutcome& outcome : manager.TakeCompleted()) {
      EXPECT_EQ(outcome.reason, RetireReason::kCompleted);
      (*delivered)[outcome.trace.id] = std::move(outcome.trace);
    }
    Refill(manager, admitted);
  }
}

class GoldenServeTest : public ::testing::TestWithParam<ServeFixture> {};

TEST_P(GoldenServeTest, ServedTracesJournalAndRecoveryMatchRecordedDigests) {
  const ServeFixture& fixture = GetParam();
  SnapshotOptions snapshot_options;
  snapshot_options.env.episode_length = 12;
  auto snapshot = std::make_shared<PolicySnapshot>(
      MakeDataset("cyber1").value(), snapshot_options);
  const Table& table = *snapshot->dataset().table;
  EdaEnvironment proto_env(snapshot->dataset(), snapshot_options.env);
  auto proto = MakeStandardReward(&proto_env).value();
  auto make_options = [&](const std::string& journal) {
    ServeOptions options;
    options.num_threads = fixture.num_threads;
    auto coherency = proto->coherency();
    auto reward_options = proto->options();
    options.reward_factory =
        [coherency, reward_options]() -> std::shared_ptr<RewardSignal> {
      return std::make_shared<CompoundReward>(coherency, reward_options);
    };
    options.notebook_store = std::make_shared<NotebookStore>();
    options.journal_path = journal;
    options.journal_compact_bytes = int64_t{64} << 10;
    options.journal_compact_snap_factor = 0;
    return options;
  };
  const std::string base = ::testing::TempDir() + "/golden_serve_" +
                           fixture.name + "_" + std::to_string(getpid());
  const std::string path = base + ".jnl";
  const std::string crash_path = base + "_crash.jnl";
  RemoveJournalFamily(path);

  // The uninterrupted run. The journal family is copied after the first
  // tick that follows a mid-run compaction: the copy holds a snapshot with
  // live sessions, a notebook sidecar and a tick record after it.
  std::map<uint64_t, SessionTrace> delivered;
  std::map<uint64_t, SessionTrace> delivered_before_crash;
  int admitted_at_crash = -1;
  {
    SessionManager manager(snapshot, make_options(path));
    int admitted = 0;
    Refill(manager, &admitted);
    // The first Admit started the journal with a compaction of its own.
    const int64_t start_compactions = manager.stats().journal_compactions;
    bool compacted = false;
    while (manager.active_sessions() > 0) {
      manager.Tick();
      if (compacted && admitted_at_crash < 0) {
        CopyJournalFamily(path, crash_path);
        admitted_at_crash = admitted;
        delivered_before_crash = delivered;
      }
      compacted = manager.stats().journal_compactions > start_compactions;
      for (SessionOutcome& outcome : manager.TakeCompleted()) {
        EXPECT_EQ(outcome.reason, RetireReason::kCompleted);
        delivered[outcome.trace.id] = std::move(outcome.trace);
      }
      Refill(manager, &admitted);
    }
  }
  ASSERT_EQ(delivered.size(), static_cast<size_t>(kServeSessions));
  ASSERT_GE(admitted_at_crash, 0) << "the run never compacted mid-run";
  const uint32_t traces = TracesDigest(delivered, table);
  const uint32_t journal = FileCrc(path);
  const uint32_t journal_prev = FileCrc(path + ".prev");

  // Recovery from the mid-run copy, driven on as the original was. Outcomes
  // retired after the copied compaction are delivered again; merging by id
  // must give the uninterrupted traces.
  uint32_t recovered_journal = 0;
  std::map<uint64_t, SessionTrace> merged = delivered_before_crash;
  {
    SessionManager recovered(snapshot, make_options(crash_path));
    SessionManager::RecoveryInfo info;
    const Status status = recovered.RecoverFromJournal(crash_path, &info);
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_FALSE(info.used_prev_fallback);
    EXPECT_GT(info.sessions_restored, 0);
    EXPECT_EQ(info.ticks_replayed, 1);
    recovered_journal = FileCrc(crash_path);
    int admitted = admitted_at_crash;
    for (SessionOutcome& outcome : recovered.TakeCompleted()) {
      merged[outcome.trace.id] = std::move(outcome.trace);
    }
    Refill(recovered, &admitted);
    ServeToEnd(recovered, &admitted, &merged);
  }
  RemoveJournalFamily(path);
  RemoveJournalFamily(crash_path);
  ASSERT_EQ(merged.size(), static_cast<size_t>(kServeSessions));
  const uint32_t recovered_traces = TracesDigest(merged, table);

  const std::string context = std::string(fixture.name) +
                              " (recorded with GCC " + kRecordedCompiler +
                              ", this build " + __VERSION__ + ")";
  EXPECT_EQ(traces, kServeDigests.traces)
      << context << ": traces digest " << DigestString(traces);
  EXPECT_EQ(recovered_traces, kServeDigests.traces)
      << context << ": recovered traces digest "
      << DigestString(recovered_traces);
  EXPECT_EQ(journal, kServeDigests.journal)
      << context << ": journal digest " << DigestString(journal);
  EXPECT_EQ(journal_prev, kServeDigests.journal_prev)
      << context << ": journal .prev digest " << DigestString(journal_prev);
  EXPECT_EQ(recovered_journal, kServeDigests.recovered_journal)
      << context << ": recovered journal digest "
      << DigestString(recovered_journal);
}

INSTANTIATE_TEST_SUITE_P(
    Serve, GoldenServeTest, ::testing::ValuesIn(kServeFixtures),
    [](const ::testing::TestParamInfo<ServeFixture>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------------------------ rendering

// Rendered notebooks show each grouped display's first rows (its keys and
// aggregates) and chart labels built from group keys, so the rendered
// bytes pin how keys are materialized. Gold notebooks cover every dataset;
// the RunAtena notebook adds a trained agent's session on cyber1.
constexpr uint32_t kRenderDigest = 0x2E9362CBu;
constexpr size_t kRenderBytes = 798245;

TEST(GoldenRenderTest, RenderedNotebooksMatchRecordedDigest) {
  uint32_t crc = 0;
  size_t bytes = 0;
  auto add = [&](const EdaNotebook& notebook) {
    for (const std::string& text :
         {RenderMarkdown(notebook).value(), RenderHtml(notebook).value()}) {
      crc = Crc32Extend(crc, text);
      bytes += text.size();
    }
  };
  const EnvConfig config;
  for (const std::string& id : ExperimentalDatasetIds()) {
    const Dataset dataset = MakeDataset(id).value();
    const std::vector<EdaNotebook> notebooks =
        GoldNotebooks(dataset, config).value();
    for (const EdaNotebook& notebook : notebooks) add(notebook);
  }
  AtenaOptions options;
  options.num_actors = 4;
  options.trainer.num_threads = 1;
  options.trainer.total_steps = kTrainingSteps;
  auto atena = RunAtena(MakeDataset("cyber1").value(), options);
  ASSERT_TRUE(atena.ok()) << atena.status();
  add(atena.value().notebook);
  EXPECT_EQ(crc, kRenderDigest)
      << "render digest " << DigestString(crc) << " over " << bytes
      << " bytes (recorded with GCC " << kRecordedCompiler << ", this build "
      << __VERSION__ << ")";
  EXPECT_EQ(bytes, kRenderBytes);
}

// -------------------------------------------------------------- table 2

// Every generator of the Table 2 benchmark (bench/table2_aeda.cc) at a tiny
// training budget. The greedy baselines pick filter terms from
// EnumerateOperations' token lists, OTS-DRL from its explicit per-column
// token table and the learned generators from ResolveAction's frequency
// bins, so these digests pin every reader of a token list.
struct Table2Fixture {
  const char* dataset;
  uint32_t digest;
};

constexpr Table2Fixture kTable2Fixtures[] = {
    {"cyber1", 0xEE50F56Au},
    {"flights1", 0xB736DFBAu},
};

void PrintTo(const Table2Fixture& fixture, std::ostream* os) {
  *os << fixture.dataset;
}

/// The benchmark's experiment options at a 384-step training budget.
AtenaOptions Table2Options() {
  AtenaOptions options;
  options.env.episode_length = 12;
  options.env.num_term_bins = 8;
  options.trainer.total_steps = 384;
  options.trainer.rollout_length = 192;
  options.trainer.final_eval_episodes = kFinalEvalEpisodes;
  options.policy.hidden = {64, 64};
  return options;
}

/// Each generator's notebook operations (filter terms by value) and the
/// bits of its A-EDA scores against the dataset's gold notebooks.
uint32_t Table2Digest(const Dataset& dataset) {
  const AtenaOptions options = Table2Options();
  const std::vector<EdaNotebook> gold_notebooks =
      GoldNotebooks(dataset, options.env).value();
  std::vector<std::vector<ViewSignature>> gold;
  for (const EdaNotebook& notebook : gold_notebooks) {
    gold.push_back(NotebookSignatures(notebook));
  }
  uint32_t crc = 0;
  for (BaselineKind kind : AllBaselines()) {
    auto run = RunBaseline(kind, dataset, options);
    EXPECT_TRUE(run.ok()) << BaselineName(kind) << ": " << run.status();
    if (!run.ok()) return 0;
    const EdaNotebook& notebook = run.value().notebook;
    crc = PodCrc(crc, notebook.entries.size());
    for (const NotebookEntry& entry : notebook.entries) {
      crc = Crc32Extend(crc, entry.op.Describe(*dataset.table));
      if (entry.op.type == OpType::kFilter) {
        crc = ValueCrc(crc, entry.op.filter.term);
      }
    }
    const AedaScores scores =
        ComputeAedaScores(NotebookSignatures(notebook), gold);
    for (double score : {scores.precision, scores.t_bleu_1, scores.t_bleu_2,
                         scores.t_bleu_3, scores.eda_sim}) {
      crc = PodCrc(crc, std::bit_cast<uint64_t>(score));
    }
  }
  return crc;
}

class GoldenTable2Test : public ::testing::TestWithParam<Table2Fixture> {};

TEST_P(GoldenTable2Test, GeneratorsMatchRecordedDigest) {
  const Table2Fixture& fixture = GetParam();
  const uint32_t digest = Table2Digest(MakeDataset(fixture.dataset).value());
  EXPECT_EQ(digest, fixture.digest)
      << fixture.dataset << ": table 2 digest " << DigestString(digest)
      << " (recorded with GCC " << kRecordedCompiler << ", this build "
      << __VERSION__ << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Table2, GoldenTable2Test, ::testing::ValuesIn(kTable2Fixtures),
    [](const ::testing::TestParamInfo<Table2Fixture>& info) {
      return std::string(info.param.dataset);
    });

}  // namespace
}  // namespace atena
