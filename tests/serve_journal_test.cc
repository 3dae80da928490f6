// Durable serving: the write-ahead session journal (DESIGN.md §15).
//
// The contract under test is bit-identical crash recovery: a manager
// killed at ANY point — between ticks, mid-append (simulated by
// truncating the journal at every byte offset), mid-compaction (every
// file-io failure point), with a corrupt compaction snapshot — must
// recover to a state whose subsequent traces equal an uninterrupted
// run's, bit for bit, at any thread count. Outcomes are re-delivered
// at-least-once after recovery, so every merge here dedupes by session
// id and asserts re-deliveries are bit-identical to the originals.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "data/registry.h"
#include "index/notebook_store.h"
#include "reward/compound.h"
#include "rl/checkpoint.h"
#include "serve/journal.h"
#include "serve/session_manager.h"
#include "serve/snapshot.h"

namespace atena {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveIfExists(const std::string& path) {
  if (FileExists(path)) std::remove(path.c_str());
}

/// Removes a journal plus every artifact a run can leave next to it.
void CleanJournalFamily(const std::string& path) {
  for (const char* suffix : {"", ".prev", ".new", ".tmp"}) {
    RemoveIfExists(path + suffix);
  }
  for (int64_t seq = 0; seq < 64; ++seq) {
    RemoveIfExists(JournalSidecarPath(path, seq));
  }
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadRaw(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
  return bytes;
}

SnapshotOptions SmallOptions() {
  SnapshotOptions options;
  options.env.episode_length = 6;
  options.env.num_term_bins = 4;
  options.policy.hidden = {24, 24};
  return options;
}

std::shared_ptr<PolicySnapshot> SmallSnapshot(
    const std::string& dataset = "cyber2") {
  return std::make_shared<PolicySnapshot>(MakeDataset(dataset).value(),
                                          SmallOptions());
}

// The mixed workload of the determinism tests: staggered step budgets
// (some spanning several episodes), interleaved greedy and sampling.
std::vector<SessionConfig> MixedConfigs(int count) {
  std::vector<SessionConfig> configs;
  for (int i = 0; i < count; ++i) {
    SessionConfig config;
    config.seed = 900 + static_cast<uint64_t>(i);
    config.max_steps = 4 + (i % 3) * 5;  // 4, 9 or 14 steps; episodes are 6.
    config.greedy = (i % 2) == 0;
    configs.push_back(config);
  }
  return configs;
}

void ExpectTracesEqual(const SessionTrace& got, const SessionTrace& want,
                       const Table& table, const std::string& context) {
  ASSERT_EQ(got.steps.size(), want.steps.size()) << context;
  for (size_t i = 0; i < got.steps.size(); ++i) {
    const ServedStep& g = got.steps[i];
    const ServedStep& w = want.steps[i];
    EXPECT_EQ(g.op.Describe(table), w.op.Describe(table))
        << context << " step " << i;
    EXPECT_EQ(g.valid, w.valid) << context << " step " << i;
    EXPECT_EQ(g.reward, w.reward) << context << " step " << i;
    EXPECT_EQ(g.display_signature, w.display_signature)
        << context << " step " << i;
  }
  EXPECT_EQ(got.total_reward, want.total_reward) << context;
}

uint64_t MustAdmit(SessionManager& manager, const SessionConfig& config) {
  Result<uint64_t> id = manager.Admit(config);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.ok() ? id.value() : 0;
}

SessionManager::RecoveryInfo MustRecover(SessionManager& manager,
                                         const std::string& path) {
  SessionManager::RecoveryInfo info;
  Status status = manager.RecoverFromJournal(path, &info);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return info;
}

/// Folds a batch of outcomes into `merged`, deduping by session id.
/// Recovery re-delivers post-compaction retirements (at-least-once), so a
/// duplicate delivery is expected — but it must be bit-identical to the
/// one already seen.
void MergeOutcomes(std::map<uint64_t, SessionOutcome>* merged,
                   std::vector<SessionOutcome> outcomes, const Table& table,
                   const std::string& context) {
  for (auto& outcome : outcomes) {
    auto it = merged->find(outcome.trace.id);
    if (it != merged->end()) {
      ExpectTracesEqual(outcome.trace, it->second.trace, table,
                        context + " re-delivered id " +
                            std::to_string(outcome.trace.id));
      EXPECT_EQ(outcome.reason, it->second.reason) << context;
      EXPECT_EQ(outcome.final_stage, it->second.final_stage) << context;
      EXPECT_EQ(outcome.degraded_steps, it->second.degraded_steps) << context;
    }
    (*merged)[outcome.trace.id] = std::move(outcome);
  }
}

/// Asserts every merged outcome completed cleanly and matches its serial
/// reference trace bit for bit.
void ExpectMergedMatchesReference(
    const std::map<uint64_t, SessionOutcome>& merged,
    const std::map<uint64_t, SessionTrace>& reference_by_seed,
    const Table& table, const std::string& context) {
  for (const auto& [id, outcome] : merged) {
    EXPECT_EQ(outcome.reason, RetireReason::kCompleted)
        << context << " id " << id << ": "
        << RetireReasonName(outcome.reason) << " "
        << outcome.status.ToString();
    auto it = reference_by_seed.find(outcome.trace.seed);
    ASSERT_NE(it, reference_by_seed.end()) << context << " id " << id;
    ExpectTracesEqual(outcome.trace, it->second, table,
                      context + " seed " + std::to_string(outcome.trace.seed));
  }
}

// ---------------------------------------------------------------------------
// Journal file shape and group commit

TEST(ServeJournalTest, JournaledRunWritesAParseableJournal) {
  auto snapshot = SmallSnapshot();
  const std::string path = TempPath("serve_journal_shape.jnl");
  CleanJournalFamily(path);

  ServeOptions options;
  options.journal_path = path;
  SessionManager manager(snapshot, options);
  const auto configs = MixedConfigs(2);
  for (const auto& config : configs) MustAdmit(manager, config);
  for (int t = 0; t < 3; ++t) manager.Tick();

  ASSERT_TRUE(FileExists(path));
  Result<JournalContents> parsed = ReadJournal(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JournalContents& contents = parsed.value();
  EXPECT_TRUE(contents.has_meta);
  EXPECT_EQ(contents.meta.dataset_id, snapshot->dataset().info.id);
  EXPECT_EQ(contents.meta.observation_dim, snapshot->observation_dim());
  EXPECT_EQ(contents.meta.episode_length, 6);
  EXPECT_TRUE(contents.has_snapshot);
  EXPECT_TRUE(contents.snapshot_valid);
  EXPECT_TRUE(contents.clean_tail);
  // Lazy start: the journal began (empty snapshot) at the first admit, so
  // both admits and all three ticks are records, not snapshot state.
  EXPECT_TRUE(contents.snapshot.sessions.empty());
  int admits = 0, ticks = 0;
  for (const auto& record : contents.records) {
    admits += record.kind == JournalRecord::Kind::kAdmit;
    ticks += record.kind == JournalRecord::Kind::kTick;
  }
  EXPECT_EQ(admits, 2);
  EXPECT_EQ(ticks, 3);

  const ServeStats& stats = manager.stats();
  EXPECT_TRUE(manager.journal_healthy());
  EXPECT_EQ(stats.journal_appends, 5);  // 2 admits + 3 group commits.
  EXPECT_GT(stats.journal_bytes, 0);
  EXPECT_EQ(stats.journal_failures, 0);
  EXPECT_EQ(stats.journal_compactions, 1);  // The lazy initial start.
  CleanJournalFamily(path);
}

TEST(ServeJournalTest, GroupCommitSharesOneFsyncAcrossTicks) {
  auto snapshot = SmallSnapshot();
  const std::string path = TempPath("serve_journal_groupcommit.jnl");
  CleanJournalFamily(path);

  ServeOptions options;
  options.journal_path = path;
  SessionManager manager(snapshot, options);
  for (uint64_t seed : {820, 821, 822}) {
    SessionConfig config;
    config.seed = seed;
    config.max_steps = 6;
    MustAdmit(manager, config);
  }

  // Count durable flushes on the journal during the ticking phase only
  // (admission barriers already happened). The group-commit contract:
  // each tick appends ONE record (not one per stepped session), and the
  // fdatasync is deferred to the next durability barrier — so N ticks
  // with nothing delivered in between cost ZERO flushes, and the single
  // TakeCompleted delivering the finished sessions costs exactly one.
  auto fsyncs = std::make_shared<int>(0);
  SetFileIoFailureHookForTesting(
      [fsyncs, path](const char* op, const std::string& hook_path) {
        if (std::string(op) == "append-fsync" && hook_path == path) {
          ++*fsyncs;
        }
        return false;
      });
  const int kTicks = 4;
  for (int t = 0; t < kTicks; ++t) {
    EXPECT_EQ(manager.Tick(), 3);  // All three sessions stepped...
    EXPECT_TRUE(manager.TakeCompleted().empty());
  }
  EXPECT_EQ(*fsyncs, 0);  // ...without a single flush so far.

  manager.Drain();  // Remaining ticks finish all three sessions.
  const auto outcomes = manager.TakeCompleted();
  EXPECT_EQ(outcomes.size(), 3u);
  SetFileIoFailureHookForTesting({});
  // One barrier made every record — the three admits and every tick —
  // durable before the outcomes became visible.
  EXPECT_EQ(*fsyncs, 1);
  EXPECT_EQ(manager.stats().journal_syncs, 1);
  CleanJournalFamily(path);
}

TEST(ServeJournalTest, JournaledTracesMatchSerialReference) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_overhead_free.jnl");
  CleanJournalFamily(path);

  ServeOptions options;
  options.journal_path = path;
  SessionManager manager(snapshot, options);
  const auto configs = MixedConfigs(4);
  for (const auto& config : configs) MustAdmit(manager, config);
  manager.Drain();

  std::map<uint64_t, SessionOutcome> merged;
  MergeOutcomes(&merged, manager.TakeCompleted(), table, "journaled");
  ASSERT_EQ(merged.size(), configs.size());
  std::map<uint64_t, SessionTrace> reference;
  for (const auto& config : configs) {
    reference[config.seed] =
        ServeSingleSessionSerial(*snapshot, config, /*reward=*/nullptr);
  }
  // Journaling must never perturb a trace — it observes commits, it does
  // not participate in them.
  ExpectMergedMatchesReference(merged, reference, table, "journaled");
  CleanJournalFamily(path);
}

// ---------------------------------------------------------------------------
// Crash recovery: bit-identity at every kill point and thread count

TEST(ServeRecoveryTest, KillAtEveryTickRecoversBitIdentically) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const auto configs = MixedConfigs(4);
  const std::string path = TempPath("serve_journal_kill.jnl");

  std::map<uint64_t, SessionTrace> reference;
  for (const auto& config : configs) {
    reference[config.seed] =
        ServeSingleSessionSerial(*snapshot, config, /*reward=*/nullptr);
  }

  const int kMaxTicks = 15;  // Longest session is 14 steps.
  for (int threads : {1, 2, 4}) {
    // Recovery deliberately runs at a DIFFERENT thread count than the
    // crashed run: bit-identity must hold across the crash boundary even
    // when the recovered runtime is shaped differently.
    const int recover_threads = threads == 1 ? 4 : (threads == 2 ? 1 : 2);
    for (int kill_tick = 0; kill_tick <= kMaxTicks; ++kill_tick) {
      const std::string context = std::to_string(threads) + " threads, kill@" +
                                  std::to_string(kill_tick);
      CleanJournalFamily(path);
      std::map<uint64_t, SessionOutcome> merged;
      {
        ServeOptions options;
        options.num_threads = threads;
        options.journal_path = path;
        SessionManager manager(snapshot, options);
        for (const auto& config : configs) MustAdmit(manager, config);
        for (int t = 0; t < kill_tick; ++t) manager.Tick();
        MergeOutcomes(&merged, manager.TakeCompleted(), table, context);
        // Crash: the manager dies here without draining or flushing —
        // everything the recovery sees was already durable.
      }
      ServeOptions options;
      options.num_threads = recover_threads;
      options.journal_path = path;
      SessionManager recovered(snapshot, options);
      SessionManager::RecoveryInfo info = MustRecover(recovered, path);
      EXPECT_FALSE(info.used_prev_fallback) << context;
      recovered.Drain();
      MergeOutcomes(&merged, recovered.TakeCompleted(), table, context);

      ASSERT_EQ(merged.size(), configs.size()) << context;
      ExpectMergedMatchesReference(merged, reference, table, context);
    }
  }
  CleanJournalFamily(path);
}

TEST(ServeRecoveryTest, HardStopLeavesACleanlyRecoverableJournal) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_hardstop.jnl");
  CleanJournalFamily(path);

  std::map<uint64_t, SessionOutcome> before;
  {
    ServeOptions options;
    options.journal_path = path;
    SessionManager manager(snapshot, options);
    for (const auto& config : MixedConfigs(3)) MustAdmit(manager, config);
    manager.Tick();
    manager.Tick();
    EXPECT_EQ(manager.HardStop(), 3);
    MergeOutcomes(&before, manager.TakeCompleted(), table, "pre-crash");
  }
  ASSERT_EQ(before.size(), 3u);

  ServeOptions options;
  options.journal_path = path;
  SessionManager recovered(snapshot, options);
  MustRecover(recovered, path);
  EXPECT_EQ(recovered.active_sessions(), 0);
  EXPECT_EQ(recovered.stats().hard_stopped, 3);
  // The stop retirements were journaled, so they are re-delivered — with
  // the exact partial traces the pre-crash consumer saw.
  auto redelivered = recovered.TakeCompleted();
  ASSERT_EQ(redelivered.size(), 3u);
  for (const auto& outcome : redelivered) {
    EXPECT_EQ(outcome.reason, RetireReason::kHardStopped);
    auto it = before.find(outcome.trace.id);
    ASSERT_NE(it, before.end());
    ExpectTracesEqual(outcome.trace, it->second.trace, table,
                      "hard-stopped id " + std::to_string(outcome.trace.id));
  }
  CleanJournalFamily(path);
}

TEST(ServeRecoveryTest, RewardedSessionsReplayAndVerifyBitExactly) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_reward.jnl");
  CleanJournalFamily(path);

  CompoundReward::Options reward_options;
  reward_options.enable_coherency = false;  // No classifier needed.
  auto factory = [reward_options]() {
    return std::make_shared<CompoundReward>(nullptr, reward_options);
  };
  const auto configs = MixedConfigs(4);

  std::map<uint64_t, SessionOutcome> merged;
  {
    ServeOptions options;
    options.journal_path = path;
    options.reward_factory = factory;
    SessionManager manager(snapshot, options);
    for (const auto& config : configs) MustAdmit(manager, config);
    for (int t = 0; t < 5; ++t) manager.Tick();
    MergeOutcomes(&merged, manager.TakeCompleted(), table, "pre-crash");
  }

  // Replay recomputes every journaled step's reward with a fresh signal
  // and verifies it bit-exactly against the recorded value — nonzero
  // rewards make that verification meaningful.
  ServeOptions options;
  options.journal_path = path;
  options.reward_factory = factory;
  SessionManager recovered(snapshot, options);
  MustRecover(recovered, path);
  recovered.Drain();
  MergeOutcomes(&merged, recovered.TakeCompleted(), table, "recovered");

  ASSERT_EQ(merged.size(), configs.size());
  std::map<uint64_t, SessionTrace> reference;
  for (const auto& config : configs) {
    CompoundReward reward(nullptr, reward_options);
    reference[config.seed] =
        ServeSingleSessionSerial(*snapshot, config, &reward);
  }
  ExpectMergedMatchesReference(merged, reference, table, "rewarded");
  CleanJournalFamily(path);
}

TEST(ServeRecoveryTest, DegradationLadderStateSurvivesRecovery) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_degraded.jnl");
  CleanJournalFamily(path);

  // The victim overruns its first two steps, walking kNormal →
  // kNoDiversity → kGreedy, then stays (sticky) at kGreedy — a session
  // whose mid-ladder state must survive the crash.
  static constexpr int64_t kDeadline = 1000;
  auto victim_id = std::make_shared<uint64_t>(0);
  auto build_options = [&](const std::string& journal) {
    ServeOptions options;
    options.journal_path = journal;
    options.step_deadline_nanos = kDeadline;
    options.fault_injection.step_duration_nanos =
        [victim_id](uint64_t session_id, int step_index) -> int64_t {
      return (session_id == *victim_id && step_index < 2) ? 5 * kDeadline
                                                          : kDeadline / 10;
    };
    return options;
  };
  std::vector<SessionConfig> configs;
  for (uint64_t seed : {700, 701, 702}) {
    SessionConfig config;
    config.seed = seed;
    config.max_steps = 8;
    configs.push_back(config);
  }
  const size_t victim = 1;

  // Uninterrupted reference run (injected durations are deterministic).
  std::map<uint64_t, SessionOutcome> reference;
  {
    SessionManager manager(snapshot, build_options(""));
    for (size_t i = 0; i < configs.size(); ++i) {
      const uint64_t id = MustAdmit(manager, configs[i]);
      if (i == victim) *victim_id = id;
    }
    manager.Drain();
    for (auto& outcome : manager.TakeCompleted()) {
      reference[outcome.trace.seed] = std::move(outcome);
    }
  }
  ASSERT_EQ(reference.size(), configs.size());
  EXPECT_EQ(reference.at(701).final_stage, DegradeStage::kGreedy);
  EXPECT_GT(reference.at(701).degraded_steps, 0);

  // Crashed run, killed with the victim mid-ladder at kGreedy.
  std::map<uint64_t, SessionOutcome> merged;
  {
    SessionManager manager(snapshot, build_options(path));
    for (size_t i = 0; i < configs.size(); ++i) {
      const uint64_t id = MustAdmit(manager, configs[i]);
      if (i == victim) *victim_id = id;
    }
    for (int t = 0; t < 4; ++t) manager.Tick();
    MergeOutcomes(&merged, manager.TakeCompleted(), table, "pre-crash");
  }
  SessionManager recovered(snapshot, build_options(path));
  MustRecover(recovered, path);
  recovered.Drain();
  MergeOutcomes(&merged, recovered.TakeCompleted(), table, "recovered");

  ASSERT_EQ(merged.size(), configs.size());
  for (const auto& [id, outcome] : merged) {
    const SessionOutcome& want = reference.at(outcome.trace.seed);
    const std::string context = "seed " + std::to_string(outcome.trace.seed);
    EXPECT_EQ(outcome.reason, want.reason) << context;
    EXPECT_EQ(outcome.final_stage, want.final_stage) << context;
    EXPECT_EQ(outcome.degraded_steps, want.degraded_steps) << context;
    ExpectTracesEqual(outcome.trace, want.trace, table, context);
  }
  CleanJournalFamily(path);
}

// Every session event is durably in the health log before the tick record
// that carries its transition is appended, so replaying the journal must
// not log those events a second time.
TEST(ServeRecoveryTest, RecoveryDoesNotRelogJournaledEvents) {
  SnapshotOptions snapshot_options = SmallOptions();
  snapshot_options.env.episode_length = 4;
  auto snapshot = std::make_shared<PolicySnapshot>(
      MakeDataset("cyber2").value(), snapshot_options);
  const std::string path = TempPath("serve_journal_relog.jnl");
  const std::string log_path = TempPath("serve_journal_relog.jsonl");
  CleanJournalFamily(path);
  RemoveIfExists(log_path);

  // Session 2 overruns its first three steps: it degrades to kNoDiversity,
  // then to kGreedy, then retires past the last stage.
  static constexpr int64_t kDeadline = 1000;
  auto build_options = [&]() {
    ServeOptions options;
    options.journal_path = path;
    options.health_log_path = log_path;
    options.notebook_store = std::make_shared<NotebookStore>();
    options.step_deadline_nanos = kDeadline;
    options.fault_injection.step_duration_nanos =
        [](uint64_t session_id, int step_index) -> int64_t {
      return session_id == 2 && step_index < 3 ? 5 * kDeadline
                                               : kDeadline / 10;
    };
    return options;
  };
  // Crash after 9 ticks of 10-step sessions: two episode boundaries each,
  // no compaction after the journal's start.
  {
    SessionManager manager(snapshot, build_options());
    for (uint64_t seed : {810, 811, 812, 813}) {
      SessionConfig config;
      config.seed = seed;
      config.max_steps = 10;
      MustAdmit(manager, config);
    }
    for (int t = 0; t < 9; ++t) manager.Tick();
    EXPECT_EQ(manager.stats().deadline_retired, 1);
  }

  // Event lines keyed without their leading event number.
  auto event_counts = [&]() {
    std::map<std::string, int> counts;
    std::istringstream lines(ReadRaw(log_path));
    for (std::string line; std::getline(lines, line);) {
      ++counts[line.substr(line.find(','))];
    }
    return counts;
  };
  const std::map<std::string, int> before = event_counts();
  int registered = 0;
  for (const auto& [event, count] : before) {
    if (event.find("\"type\":\"notebook_registered\"") != std::string::npos) {
      registered += count;
    }
  }
  EXPECT_GE(registered, 6);

  {
    SessionManager recovered(snapshot, build_options());
    MustRecover(recovered, path);
  }
  for (const auto& [event, count] : event_counts()) {
    if (event.find("\"type\":\"recover_ok\"") != std::string::npos ||
        event.find("\"type\":\"journal_compact\"") != std::string::npos) {
      continue;
    }
    const auto it = before.find(event);
    EXPECT_LE(count, it == before.end() ? 0 : it->second)
        << "logged again by recovery: " << event;
  }
  CleanJournalFamily(path);
  RemoveIfExists(log_path);
}

TEST(ServeRecoveryTest, ReloadedSnapshotGenerationsSurviveRecovery) {
  Dataset dataset = MakeDataset("cyber2").value();
  auto snapshot = std::make_shared<PolicySnapshot>(dataset, SmallOptions());
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_reload.jnl");
  const std::string retrained_path = TempPath("serve_journal_retrained.bin");
  CleanJournalFamily(path);
  for (const char* suffix : {"", ".prev", ".new"}) {
    RemoveIfExists(retrained_path + suffix);
  }

  // The reload target: same architecture, different weights.
  SnapshotOptions retrained_options = SmallOptions();
  retrained_options.policy.seed = 555;
  auto retrained =
      std::make_shared<PolicySnapshot>(dataset, retrained_options);
  ASSERT_TRUE(SaveTrainingCheckpoint(retrained_path,
                                     retrained->policy()->Parameters(),
                                     TrainingCheckpoint{})
                  .ok());

  SessionConfig old_gen;
  old_gen.seed = 800;
  old_gen.max_steps = 9;
  SessionConfig new_gen;
  new_gen.seed = 801;
  new_gen.max_steps = 6;

  // One scripted run: admit on gen 0, hot-reload, admit on gen 1.
  auto run = [&](SessionManager& manager) {
    MustAdmit(manager, old_gen);
    manager.Tick();
    manager.Tick();
    ASSERT_TRUE(manager.ReloadSnapshot(retrained_path).ok());
    MustAdmit(manager, new_gen);
    manager.Tick();
    manager.Tick();
  };

  std::map<uint64_t, SessionTrace> reference;
  {
    SessionManager manager(snapshot, ServeOptions{});
    run(manager);
    manager.Drain();
    for (auto& outcome : manager.TakeCompleted()) {
      EXPECT_EQ(outcome.reason, RetireReason::kCompleted);
      reference[outcome.trace.seed] = std::move(outcome.trace);
    }
  }
  ASSERT_EQ(reference.size(), 2u);

  std::map<uint64_t, SessionOutcome> merged;
  {
    ServeOptions options;
    options.journal_path = path;
    SessionManager manager(snapshot, options);
    run(manager);
    MergeOutcomes(&merged, manager.TakeCompleted(), table, "pre-crash");
  }
  // Recovery re-pins each session to its admission-time generation: the
  // gen-0 session must keep acting on the constructor snapshot, the gen-1
  // session on the retrained weights reloaded from the journaled path.
  ServeOptions options;
  options.journal_path = path;
  SessionManager recovered(snapshot, options);
  MustRecover(recovered, path);
  EXPECT_EQ(recovered.stats().reload_successes, 1);
  recovered.Drain();
  MergeOutcomes(&merged, recovered.TakeCompleted(), table, "recovered");

  ASSERT_EQ(merged.size(), 2u);
  ExpectMergedMatchesReference(merged, reference, table, "reload");
  CleanJournalFamily(path);
  for (const char* suffix : {"", ".prev", ".new"}) {
    RemoveIfExists(retrained_path + suffix);
  }
}

TEST(ServeRecoveryTest, NotebookStoreContentsSurviveRecovery) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_notebooks.jnl");
  CleanJournalFamily(path);
  const auto configs = MixedConfigs(4);

  // Uninterrupted reference corpus.
  auto reference_store = std::make_shared<NotebookStore>();
  {
    ServeOptions options;
    options.notebook_store = reference_store;
    SessionManager manager(snapshot, options);
    for (const auto& config : configs) MustAdmit(manager, config);
    manager.Drain();
    manager.TakeCompleted();
  }
  ASSERT_GT(reference_store->size(), 0u);

  // Crashed run with aggressive auto-compaction, so the store's sidecar
  // is persisted and re-loaded mid-stream (not just at the lazy start).
  {
    ServeOptions options;
    options.journal_path = path;
    options.journal_compact_bytes = 400;
  options.journal_compact_snap_factor = 0;
    options.notebook_store = std::make_shared<NotebookStore>();
    SessionManager manager(snapshot, options);
    for (const auto& config : configs) MustAdmit(manager, config);
    for (int t = 0; t < 8; ++t) manager.Tick();  // Past episode length 6.
    EXPECT_GT(manager.stats().journal_compactions, 1);
    EXPECT_GT(manager.stats().notebooks_registered, 0);
  }

  // Recovery starts from an EMPTY store: the sidecar restores the
  // pre-compaction corpus, replay re-registers post-compaction notebooks.
  ServeOptions options;
  options.journal_path = path;
  options.journal_compact_bytes = 400;
  options.journal_compact_snap_factor = 0;
  options.notebook_store = std::make_shared<NotebookStore>();
  SessionManager recovered(snapshot, options);
  MustRecover(recovered, path);
  recovered.Drain();
  std::map<uint64_t, SessionOutcome> merged;
  MergeOutcomes(&merged, recovered.TakeCompleted(), table, "notebooks");

  const NotebookStore& got = *recovered.notebook_store();
  ASSERT_EQ(got.size(), reference_store->size());
  for (uint64_t id = 0; id < reference_store->size(); ++id) {
    const NotebookStore::Entry want = reference_store->entry(id);
    const NotebookStore::Entry have = got.entry(id);
    EXPECT_EQ(have.session_id, want.session_id) << "notebook " << id;
    EXPECT_EQ(have.session_seed, want.session_seed) << "notebook " << id;
    EXPECT_EQ(have.length, want.length) << "notebook " << id;
    // Display-vector sequences must survive the sidecar round trip and
    // the replayed re-registrations bit for bit.
    EXPECT_EQ(got.sequence(id), reference_store->sequence(id))
        << "notebook " << id;
  }
  CleanJournalFamily(path);
}

// ---------------------------------------------------------------------------
// Torn, truncated and corrupt journals

/// Runs a small journaled workload and "crashes", returning the journal's
/// bytes. Two sessions, two ticks: big enough to hold admits and group
/// commits, small enough for every-byte matrices.
std::string BuildCrashedJournal(
    const std::shared_ptr<PolicySnapshot>& snapshot, const std::string& path,
    std::vector<SessionConfig>* configs_out) {
  CleanJournalFamily(path);
  std::vector<SessionConfig> configs;
  for (int i = 0; i < 2; ++i) {
    SessionConfig config;
    config.seed = 900 + static_cast<uint64_t>(i);
    config.max_steps = i == 0 ? 4 : 9;
    config.greedy = i == 0;
    configs.push_back(config);
  }
  {
    ServeOptions options;
    options.num_threads = 1;
    options.journal_path = path;
    SessionManager manager(snapshot, options);
    for (const auto& config : configs) MustAdmit(manager, config);
    manager.Tick();
    manager.Tick();
  }
  if (configs_out) *configs_out = configs;
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
  return bytes;
}

TEST(ServeRecoveryTest, TruncationAtEveryByteRecoversOrFailsClean) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_trunc_src.jnl");
  const std::string trunc = TempPath("serve_journal_trunc.jnl");
  std::vector<SessionConfig> configs;
  const std::string full = BuildCrashedJournal(snapshot, path, &configs);
  ASSERT_GT(full.size(), 100u);
  std::map<uint64_t, SessionTrace> reference;
  for (const auto& config : configs) {
    reference[config.seed] =
        ServeSingleSessionSerial(*snapshot, config, /*reward=*/nullptr);
  }
  CleanJournalFamily(trunc);  // Especially any stale .prev fallback.

  int recovered_count = 0;
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteRaw(trunc, full.substr(0, cut));
    // Prefix semantics at the parse layer: a truncated file must never be
    // a parse crash, and any snapshot it does yield must be usable.
    Result<JournalContents> parsed = ReadJournal(trunc);
    const bool must_recover = parsed.ok() && parsed.value().has_meta &&
                              parsed.value().snapshot_valid;

    ServeOptions options;
    options.num_threads = 1;  // Journal-less recovery probe.
    SessionManager manager(snapshot, options);
    SessionManager::RecoveryInfo info;
    Status status = manager.RecoverFromJournal(trunc, &info);
    if (must_recover) {
      ASSERT_TRUE(status.ok()) << "cut " << cut << ": " << status.ToString();
    }
    if (!status.ok()) continue;  // A clean error is a valid outcome.
    ++recovered_count;
    // Whatever prefix survived, the recovered runtime must finish it into
    // reference traces — a shorter prefix only means more re-execution.
    manager.Drain();
    std::map<uint64_t, SessionOutcome> merged;
    MergeOutcomes(&merged, manager.TakeCompleted(), table,
                  "cut " + std::to_string(cut));
    ExpectMergedMatchesReference(merged, reference, table,
                                 "cut " + std::to_string(cut));
  }
  // The matrix must actually exercise successful recoveries (at minimum
  // the untruncated file and every cut inside the torn tail).
  EXPECT_GT(recovered_count, 1);
  CleanJournalFamily(path);
  CleanJournalFamily(trunc);
}

TEST(ServeRecoveryTest, ByteCorruptionNeverCrashesAndNeverDiverges) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_flip_src.jnl");
  const std::string flipped = TempPath("serve_journal_flip.jnl");
  std::vector<SessionConfig> configs;
  const std::string full = BuildCrashedJournal(snapshot, path, &configs);
  std::map<uint64_t, SessionTrace> reference;
  for (const auto& config : configs) {
    reference[config.seed] =
        ServeSingleSessionSerial(*snapshot, config, /*reward=*/nullptr);
  }
  CleanJournalFamily(flipped);

  // Parse layer: a flipped byte at EVERY offset must yield ok-or-clean-
  // error, never a crash or an accepted corrupt record payload.
  for (size_t offset = 0; offset < full.size(); ++offset) {
    std::string corrupt = full;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x5A);
    WriteRaw(flipped, corrupt);
    Result<JournalContents> parsed = ReadJournal(flipped);
    (void)parsed;  // Any Status is acceptable; not crashing is the test.
  }

  // Recovery layer (sampled): whatever a corrupt journal recovers to must
  // still drain into reference traces — CRC framing guarantees recovery
  // only ever sees a valid prefix, so divergence is impossible.
  for (size_t offset = 0; offset < full.size(); offset += 7) {
    std::string corrupt = full;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x5A);
    WriteRaw(flipped, corrupt);
    ServeOptions options;
    options.num_threads = 1;
    SessionManager manager(snapshot, options);
    Status status = manager.RecoverFromJournal(flipped);
    if (!status.ok()) continue;
    manager.Drain();
    std::map<uint64_t, SessionOutcome> merged;
    MergeOutcomes(&merged, manager.TakeCompleted(), table,
                  "flip " + std::to_string(offset));
    ExpectMergedMatchesReference(merged, reference, table,
                                 "flip " + std::to_string(offset));
  }
  CleanJournalFamily(path);
  CleanJournalFamily(flipped);
}

TEST(ServeRecoveryTest, TornHeaderRecoversToEmptyRuntime) {
  auto snapshot = SmallSnapshot();
  const std::string path = TempPath("serve_journal_torn_header.jnl");
  CleanJournalFamily(path);
  // A crash during the very first journal write can leave any prefix of
  // the header line — nothing was ever durable, so recovery is an empty
  // (but fully usable) runtime, not an error.
  WriteRaw(path, "ATENA-S");
  SessionManager manager(snapshot, ServeOptions{});
  SessionManager::RecoveryInfo info = MustRecover(manager, path);
  EXPECT_TRUE(info.torn_tail);
  EXPECT_EQ(info.sessions_restored, 0);
  SessionConfig config;
  config.seed = 42;
  config.max_steps = 4;
  MustAdmit(manager, config);
  manager.Drain();
  EXPECT_EQ(manager.TakeCompleted().size(), 1u);
  CleanJournalFamily(path);
}

TEST(ServeRecoveryTest, MissingJournalIsNotFound) {
  auto snapshot = SmallSnapshot();
  const std::string path = TempPath("serve_journal_never_written.jnl");
  CleanJournalFamily(path);
  SessionManager manager(snapshot, ServeOptions{});
  Status status = manager.RecoverFromJournal(path);
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
}

TEST(ServeRecoveryTest, RecoveryRequiresAFreshManager) {
  auto snapshot = SmallSnapshot();
  const std::string path = TempPath("serve_journal_used_manager.jnl");
  std::vector<SessionConfig> configs;
  BuildCrashedJournal(snapshot, path, &configs);

  SessionManager manager(snapshot, ServeOptions{});
  MustAdmit(manager, configs[0]);
  Status status = manager.RecoverFromJournal(path);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  CleanJournalFamily(path);
}

TEST(ServeRecoveryTest, MismatchedConfigurationIsRejected) {
  auto snapshot = SmallSnapshot();
  const std::string path = TempPath("serve_journal_mismatch.jnl");
  BuildCrashedJournal(snapshot, path, nullptr);

  // A journal must never silently replay against a different environment
  // shape (meta binds dataset id + env dimensions).
  SnapshotOptions other = SmallOptions();
  other.env.episode_length = 8;
  auto mismatched = std::make_shared<PolicySnapshot>(
      MakeDataset("cyber2").value(), other);
  SessionManager manager(mismatched, ServeOptions{});
  Status status = manager.RecoverFromJournal(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.message().find("episode_length"), std::string::npos)
      << status.message();
  CleanJournalFamily(path);
}

// ---------------------------------------------------------------------------
// Compaction: crash-mid-compaction, corrupt snapshot → .prev fallback

TEST(ServeRecoveryTest, CompactedJournalRecoversBitIdentically) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_compacted.jnl");
  CleanJournalFamily(path);
  const auto configs = MixedConfigs(4);
  std::map<uint64_t, SessionTrace> reference;
  for (const auto& config : configs) {
    reference[config.seed] =
        ServeSingleSessionSerial(*snapshot, config, /*reward=*/nullptr);
  }

  std::map<uint64_t, SessionOutcome> merged;
  {
    ServeOptions options;
    options.journal_path = path;
    options.journal_compact_bytes = 1;       // Compact after every tick:
    options.journal_compact_snap_factor = 0;  // floor alone decides.
    SessionManager manager(snapshot, options);
    for (const auto& config : configs) MustAdmit(manager, config);
    for (int t = 0; t < 7; ++t) manager.Tick();
    EXPECT_GT(manager.stats().journal_compactions, 3);
    MergeOutcomes(&merged, manager.TakeCompleted(), table, "pre-crash");
  }
  ASSERT_TRUE(FileExists(path + ".prev"));

  ServeOptions options;
  options.journal_path = path;
  SessionManager recovered(snapshot, options);
  SessionManager::RecoveryInfo info = MustRecover(recovered, path);
  EXPECT_FALSE(info.used_prev_fallback);
  recovered.Drain();
  MergeOutcomes(&merged, recovered.TakeCompleted(), table, "recovered");
  ASSERT_EQ(merged.size(), configs.size());
  ExpectMergedMatchesReference(merged, reference, table, "compacted");
  CleanJournalFamily(path);
}

TEST(ServeRecoveryTest, CorruptSnapshotFallsBackToPrevJournal) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_fallback.jnl");
  CleanJournalFamily(path);
  const auto configs = MixedConfigs(3);
  std::map<uint64_t, SessionTrace> reference;
  for (const auto& config : configs) {
    reference[config.seed] =
        ServeSingleSessionSerial(*snapshot, config, /*reward=*/nullptr);
  }

  std::map<uint64_t, SessionOutcome> merged;
  {
    ServeOptions options;
    options.journal_path = path;
    options.journal_compact_bytes = 1;
    options.journal_compact_snap_factor = 0;
    SessionManager manager(snapshot, options);
    for (const auto& config : configs) MustAdmit(manager, config);
    for (int t = 0; t < 5; ++t) manager.Tick();
    MergeOutcomes(&merged, manager.TakeCompleted(), table, "pre-crash");
  }
  ASSERT_TRUE(FileExists(path + ".prev"));

  // Corrupt one byte INSIDE the snap record's payload, leaving its frame
  // line intact: the CRC rejects the snapshot, but the reader can still
  // skip past it by the declared size. The pre-compaction journal next
  // door replays to the exact state the corrupt snapshot captured.
  std::string bytes = ReadRaw(path);
  const size_t frame = bytes.find("ATJ snap ");
  ASSERT_NE(frame, std::string::npos);
  const size_t payload = bytes.find('\n', frame);
  ASSERT_NE(payload, std::string::npos);
  ASSERT_LT(payload + 1, bytes.size());
  bytes[payload + 1] = static_cast<char>(bytes[payload + 1] ^ 0x5A);
  WriteRaw(path, bytes);

  ServeOptions options;
  options.journal_path = path;
  SessionManager recovered(snapshot, options);
  SessionManager::RecoveryInfo info = MustRecover(recovered, path);
  EXPECT_TRUE(info.used_prev_fallback);
  EXPECT_EQ(recovered.stats().recovery_fallbacks, 1);
  recovered.Drain();
  MergeOutcomes(&merged, recovered.TakeCompleted(), table, "fallback");
  ASSERT_EQ(merged.size(), configs.size());
  ExpectMergedMatchesReference(merged, reference, table, "fallback");
  CleanJournalFamily(path);
}

TEST(ServeRecoveryTest, CrashAtEveryCompactionFailurePointRecovers) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_midcompact.jnl");
  const auto configs = MixedConfigs(3);
  std::map<uint64_t, SessionTrace> reference;
  for (const auto& config : configs) {
    reference[config.seed] =
        ServeSingleSessionSerial(*snapshot, config, /*reward=*/nullptr);
  }

  // Compaction is copy-then-atomic-replace, so a crash (here: an injected
  // EIO) at ANY of its file-io steps leaves either the old journal or the
  // new one intact on disk — never a half-written state.
  for (const char* op : {"open", "write", "fsync", "rename", "dirsync"}) {
    CleanJournalFamily(path);
    std::map<uint64_t, SessionOutcome> merged;
    {
      ServeOptions options;
      options.journal_path = path;
      SessionManager manager(snapshot, options);
      for (const auto& config : configs) MustAdmit(manager, config);
      for (int t = 0; t < 3; ++t) manager.Tick();

      SetFileIoFailureHookForTesting(
          [op, &path](const char* hook_op, const std::string& hook_path) {
            return std::string(hook_op) == op &&
                   hook_path.find(path) != std::string::npos;
          });
      Status compacted = manager.CompactJournal();
      SetFileIoFailureHookForTesting({});
      ASSERT_FALSE(compacted.ok()) << op;
      // The failure disabled journaling; serving continues unjournaled.
      EXPECT_FALSE(manager.journal_healthy()) << op;
      EXPECT_EQ(manager.stats().journal_failures, 1) << op;
      manager.Tick();
      manager.Tick();
      MergeOutcomes(&merged, manager.TakeCompleted(), table, op);
    }

    // Recovery rewinds to the last durable journal state (3 journaled
    // ticks) and re-executes the unjournaled suffix identically.
    ServeOptions options;
    options.journal_path = path;
    SessionManager recovered(snapshot, options);
    MustRecover(recovered, path);
    recovered.Drain();
    MergeOutcomes(&merged, recovered.TakeCompleted(), table, op);
    ASSERT_EQ(merged.size(), configs.size()) << op;
    ExpectMergedMatchesReference(merged, reference, table, op);
  }
  CleanJournalFamily(path);
}

TEST(ServeRecoveryTest, AppendFailureDegradesDurabilityNotServing) {
  auto snapshot = SmallSnapshot();
  const Table& table = *snapshot->dataset().table;
  const std::string path = TempPath("serve_journal_append_fail.jnl");
  CleanJournalFamily(path);
  const auto configs = MixedConfigs(3);

  ServeOptions options;
  options.journal_path = path;
  SessionManager manager(snapshot, options);
  for (const auto& config : configs) MustAdmit(manager, config);
  manager.Tick();
  SetFileIoFailureHookForTesting(
      [&path](const char* op, const std::string& hook_path) {
        return std::string(op) == "append-fsync" &&
               hook_path.find(path) != std::string::npos;
      });
  manager.Drain();  // Ticks append without flushing, so they all succeed...
  std::map<uint64_t, SessionOutcome> merged;
  // ...and the delivery barrier is where the fdatasync fails. The journal
  // breaks, but every outcome is still handed out: durability degrades,
  // serving does not.
  MergeOutcomes(&merged, manager.TakeCompleted(), table, "append-fail");
  SetFileIoFailureHookForTesting({});
  EXPECT_FALSE(manager.journal_healthy());
  EXPECT_EQ(manager.stats().journal_failures, 1);
  ASSERT_EQ(merged.size(), configs.size());
  std::map<uint64_t, SessionTrace> reference;
  for (const auto& config : configs) {
    reference[config.seed] =
        ServeSingleSessionSerial(*snapshot, config, /*reward=*/nullptr);
  }
  ExpectMergedMatchesReference(merged, reference, table, "append-fail");
  CleanJournalFamily(path);
}

}  // namespace
}  // namespace atena
