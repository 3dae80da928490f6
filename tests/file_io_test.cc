#include "common/file_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "common/event_log.h"
#include "common/string_utils.h"

namespace atena {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string MustRead(const std::string& path) {
  std::string out;
  Status status = ReadFileToString(path, &out);
  EXPECT_TRUE(status.ok()) << status;
  return out;
}

void RemoveIfExists(const std::string& path) {
  if (FileExists(path)) std::remove(path.c_str());
}

/// Makes every file-io step named `failing_op` fail until cleared.
void FailStep(const char* failing_op) {
  SetFileIoFailureHookForTesting(
      [failing_op](const char* op, const std::string&) {
        return std::string(op) == failing_op;
      });
}

class FileIoTest : public ::testing::Test {
 protected:
  void TearDown() override { SetFileIoFailureHookForTesting({}); }
};

using DurableAppenderTest = FileIoTest;
using EventLogTest = FileIoTest;

TEST_F(FileIoTest, AtomicWriteRoundTrip) {
  const std::string path = TempPath("atomic_roundtrip.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "hello\nworld\n").ok());
  EXPECT_EQ(MustRead(path), "hello\nworld\n");
  // Overwrite replaces the contents completely.
  ASSERT_TRUE(AtomicWriteFile(path, "x").ok());
  EXPECT_EQ(MustRead(path), "x");
  // No temp file left behind.
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FileIoTest, ReadMissingFileCarriesErrnoDetail) {
  std::string out = "sentinel";
  Status status = ReadFileToString(TempPath("does_not_exist.txt"), &out);
  ASSERT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("No such file"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find("errno"), std::string::npos) << status;
  EXPECT_EQ(out, "sentinel");  // untouched on failure
}

TEST_F(FileIoTest, FailureAtEveryStepPreservesExistingFile) {
  const std::string path = TempPath("atomic_failure.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "previous good contents").ok());

  for (const char* failing_op : {"open", "write", "fsync", "rename"}) {
    SetFileIoFailureHookForTesting(
        [failing_op](const char* op, const std::string&) {
          return std::string(op) == failing_op;
        });
    Status status = AtomicWriteFile(path, "new contents that must not land");
    ASSERT_EQ(status.code(), StatusCode::kIOError) << failing_op;
    EXPECT_NE(status.message().find(failing_op), std::string::npos) << status;
    SetFileIoFailureHookForTesting({});
    // The atomicity contract: the old file survives every failure point,
    // and the temp file is cleaned up.
    EXPECT_EQ(MustRead(path), "previous good contents") << failing_op;
    EXPECT_FALSE(FileExists(path + ".tmp")) << failing_op;
  }
}

TEST_F(FileIoTest, Crc32KnownVectors) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST_F(FileIoTest, ChecksummedRoundTrip) {
  const std::string path = TempPath("framed.bin");
  const std::string payload("line one\nline two\nbinary \0 byte", 31);
  ASSERT_TRUE(WriteChecksummedFile(path, "TEST-MAGIC v1", payload).ok());
  std::string decoded;
  ASSERT_TRUE(ReadChecksummedFile(path, "TEST-MAGIC v1", &decoded).ok());
  EXPECT_EQ(decoded, payload);
}

TEST_F(FileIoTest, ChecksummedRejectsWrongMagic) {
  const std::string path = TempPath("framed_magic.bin");
  ASSERT_TRUE(WriteChecksummedFile(path, "TEST-MAGIC v1", "payload").ok());
  std::string decoded = "sentinel";
  Status status = ReadChecksummedFile(path, "OTHER-MAGIC v1", &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded, "sentinel");
}

TEST_F(FileIoTest, ChecksummedDetectsTruncationAtEveryOffset) {
  const std::string path = TempPath("framed_trunc.bin");
  ASSERT_TRUE(
      WriteChecksummedFile(path, "TEST-MAGIC v1", "0123456789abcdef").ok());
  const std::string full = MustRead(path);
  const std::string cut_path = TempPath("framed_cut.bin");
  for (size_t cut = 0; cut < full.size(); ++cut) {
    ASSERT_TRUE(AtomicWriteFile(cut_path, full.substr(0, cut)).ok());
    std::string decoded = "sentinel";
    Status status = ReadChecksummedFile(cut_path, "TEST-MAGIC v1", &decoded);
    EXPECT_FALSE(status.ok()) << "truncation at byte " << cut << " accepted";
    EXPECT_EQ(decoded, "sentinel") << "payload modified at cut " << cut;
  }
}

TEST_F(FileIoTest, ChecksummedDetectsEverySingleByteCorruption) {
  const std::string path = TempPath("framed_corrupt.bin");
  ASSERT_TRUE(
      WriteChecksummedFile(path, "TEST-MAGIC v1", "0123456789abcdef").ok());
  const std::string full = MustRead(path);
  const std::string bad_path = TempPath("framed_bad.bin");
  for (size_t i = 0; i < full.size(); ++i) {
    std::string corrupted = full;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x20);
    if (corrupted[i] == full[i]) continue;
    ASSERT_TRUE(AtomicWriteFile(bad_path, corrupted).ok());
    std::string decoded;
    Status status = ReadChecksummedFile(bad_path, "TEST-MAGIC v1", &decoded);
    EXPECT_FALSE(status.ok()) << "byte flip at offset " << i << " accepted";
  }
}

// ---------------------------------------------------------------------------
// Durable appends: the serving journal's and the event log's primitive.

TEST_F(DurableAppenderTest, AppendsAccumulateAcrossOpens) {
  const std::string path = TempPath("appender_basic.txt");
  RemoveIfExists(path);
  {
    DurableAppender file;
    ASSERT_TRUE(file.Open(path).ok());
    ASSERT_TRUE(file.AppendParts({"on", "", "e\n"}).ok());
    EXPECT_TRUE(file.dirty());
    ASSERT_TRUE(file.Sync().ok());
    EXPECT_FALSE(file.dirty());
  }
  DurableAppender again;
  ASSERT_TRUE(again.Open(path).ok());
  ASSERT_TRUE(again.AppendParts({"two\n"}).ok());
  ASSERT_TRUE(again.Sync().ok());
  EXPECT_EQ(MustRead(path), "one\ntwo\n");
  again.Close();
  EXPECT_EQ(again.AppendParts({"three\n"}).code(),
            StatusCode::kFailedPrecondition);
  RemoveIfExists(path);
}

TEST_F(DurableAppenderTest, InjectedFailuresSurfaceAsErrors) {
  const std::string path = TempPath("appender_faulty.txt");
  for (const char* op : {"append-open", "append-write", "append-fsync"}) {
    RemoveIfExists(path);
    FailStep(op);
    DurableAppender file;
    Status status = file.Open(path);
    if (status.ok()) status = file.AppendParts({"payload"});
    if (status.ok()) status = file.Sync();
    SetFileIoFailureHookForTesting({});
    ASSERT_EQ(status.code(), StatusCode::kIOError) << op;
    EXPECT_NE(status.message().find(op), std::string::npos) << status;
    if (std::string(op) == "append-open") {
      EXPECT_FALSE(file.is_open());
      EXPECT_FALSE(FileExists(path)) << "failed open must not create " << path;
    }
    if (std::string(op) == "append-fsync") {
      // The bytes are written but not durable: a later Sync retries.
      EXPECT_TRUE(file.dirty());
      EXPECT_TRUE(file.Sync().ok());
      EXPECT_EQ(MustRead(path), "payload");
    }
  }
  RemoveIfExists(path);
}

// ---------------------------------------------------------------------------
// Event log: one durable line per event, torn-line trim, JSON numbers

TEST_F(EventLogTest, AppendsOneDurableLinePerEvent) {
  const std::string path = TempPath("event_log_per_event.jsonl");
  RemoveIfExists(path);
  {
    EventLog log(path);
    log.Continue();
    log.Append("a", "");
    log.Append("b", "\"x\":1");
    EXPECT_EQ(log.events(), 2);
  }
  EXPECT_EQ(MustRead(path),
            "{\"event\":1,\"type\":\"a\"}\n"
            "{\"event\":2,\"type\":\"b\",\"x\":1}\n");
  // Continuing resumes numbering after the last complete line.
  EventLog reopened(path);
  reopened.Continue();
  EXPECT_EQ(reopened.events(), 2);
  reopened.Append("c", "");
  EXPECT_NE(MustRead(path).find("{\"event\":3,\"type\":\"c\"}\n"),
            std::string::npos);
  RemoveIfExists(path);
}

TEST_F(EventLogTest, TornFinalLineIsTrimmedOnContinue) {
  const std::string path = TempPath("event_log_torn.jsonl");
  RemoveIfExists(path);
  {
    EventLog log(path);
    log.Append("kept", "");
  }
  const std::string complete = MustRead(path);
  // A crash mid-append can only tear the FINAL line (O_APPEND writes).
  ASSERT_TRUE(
      AtomicWriteFile(path, complete + "{\"event\":2,\"type\":\"to").ok());
  EventLog reopened(path);
  reopened.Continue();
  EXPECT_EQ(reopened.events(), 1);
  EXPECT_EQ(MustRead(path), complete);
  reopened.Append("next", "");
  EXPECT_EQ(MustRead(path),
            complete + "{\"event\":2,\"type\":\"next\"}\n");
  RemoveIfExists(path);
}

TEST_F(EventLogTest, FirstEventReplacesAnOlderLogUnlessContinued) {
  const std::string path = TempPath("event_log_fresh.jsonl");
  ASSERT_TRUE(AtomicWriteFile(path, "{\"stale\":1}\n").ok());
  EventLog fresh(path);
  // Nothing is touched before the first event.
  EXPECT_EQ(MustRead(path), "{\"stale\":1}\n");
  fresh.Append("first", "");
  fresh.Append("second", "");
  EXPECT_EQ(MustRead(path),
            "{\"event\":1,\"type\":\"first\"}\n"
            "{\"event\":2,\"type\":\"second\"}\n");

  // A disabled log writes nothing and counts nothing.
  EventLog disabled("");
  disabled.Continue();
  disabled.Append("ignored", "");
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.events(), 0);
  RemoveIfExists(path);
}

TEST_F(EventLogTest, WriteFailureWarnsAndLeavesTheCallerUnaffected) {
  const std::string path = TempPath("event_log_faulty.jsonl");
  RemoveIfExists(path);
  EventLog log(path);
  for (const char* op : {"append-open", "append-write", "append-fsync"}) {
    FailStep(op);
    ::testing::internal::CaptureStderr();
    log.Append("faulty", "");  // returns normally: nothing to handle
    const std::string warning = ::testing::internal::GetCapturedStderr();
    SetFileIoFailureHookForTesting({});
    EXPECT_NE(warning.find("write failed"), std::string::npos) << op;
    EXPECT_NE(warning.find(op), std::string::npos) << warning;
  }
  // The log keeps working, and its numbering counts every event.
  log.Append("after", "");
  EXPECT_EQ(log.events(), 4);
  const std::string bytes = MustRead(path);
  EXPECT_EQ(bytes.substr(bytes.rfind('{')),
            "{\"event\":4,\"type\":\"after\"}\n");
  RemoveIfExists(path);
}

TEST_F(EventLogTest, JsonNumberPinsNonFiniteConvention) {
  // JSON cannot carry non-finite doubles, so they become quoted strings —
  // e.g. a degraded-step ratio over zero recovered steps (0/0 = NaN) must
  // still produce a parseable line.
  EXPECT_EQ(JsonNumber(std::nan("")), "\"nan\"");
  EXPECT_EQ(JsonNumber(HUGE_VAL), "\"inf\"");
  EXPECT_EQ(JsonNumber(-HUGE_VAL), "\"-inf\"");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(0.0), "0");
}

}  // namespace
}  // namespace atena
