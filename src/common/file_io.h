#ifndef ATENA_COMMON_FILE_IO_H_
#define ATENA_COMMON_FILE_IO_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/status.h"

namespace atena {

/// Durable, crash-safe file primitives shared by every component that
/// persists state (network checkpoints, training checkpoints, CSV export).
/// The invariant all writers get for free: an interrupted write can never
/// corrupt an existing file — the previous contents of `path` survive any
/// failure, because new bytes land in a temp file in the same directory and
/// only an atomic rename() publishes them.

/// True when `path` names an existing filesystem entry.
bool FileExists(const std::string& path);

/// Atomically replaces `path` with `contents`:
///   1. write `path + ".tmp"` in the same directory,
///   2. flush + fsync the temp file,
///   3. rename() it over `path`,
///   4. fsync the containing directory so the rename itself is durable.
/// On any failure the temp file is removed and `path` is untouched; the
/// returned IOError names the failing step and carries strerror(errno)
/// detail.
Status AtomicWriteFile(const std::string& path, std::string_view contents);

/// Reads the whole of `path` into `*out` (binary, no translation). Errors
/// carry strerror(errno) detail; `*out` is only modified on success.
Status ReadFileToString(const std::string& path, std::string* out);

/// Durable appends to a log-structured file (the serving journal and the
/// event log): the file descriptor is held open across appends, and
/// writing is decoupled from flushing — AppendParts pushes bytes into the
/// kernel (cheap), Sync makes everything appended so far durable with one
/// fdatasync (the expensive part, paid only at commit barriers).
/// fdatasync persists the data and the file-size metadata needed to read
/// it back. This is the log-structured sibling of AtomicWriteFile — it
/// never rewrites existing bytes, so a crash can only leave a *torn
/// suffix*, never damage what earlier appends made durable; readers of
/// append-only files must therefore tolerate an incomplete final record.
/// Consults the failure hook with ops "append-open", "append-dirsync",
/// "append-write" and "append-fsync". Not thread-safe.
class DurableAppender {
 public:
  DurableAppender() = default;
  ~DurableAppender();
  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;

  /// Opens (or creates, syncing the directory entry) `path` for appending.
  /// Closes any previously opened file first.
  Status Open(const std::string& path);
  bool is_open() const { return fd_ >= 0; }
  /// True when bytes have been appended since the last successful Sync —
  /// i.e. a Sync would actually flush something.
  bool dirty() const { return dirty_; }
  /// Closes the descriptor; appends after a Close reopen via Open. Safe to
  /// call when not open. Call after the file is replaced (rename) so the
  /// next Open picks up the new inode. Deliberately does NOT sync: unsynced
  /// bytes are the caller's to flush (or to abandon, crash-style).
  void Close();

  /// Appends the concatenation of `parts` (at most 16 non-empty ones) on
  /// the held descriptor as one gather write (writev loop, no flush) — a
  /// record's pieces never have to be copied into a contiguous buffer
  /// first. FailedPrecondition when not open; consults the "append-write"
  /// failure hook. Until the next Sync the new bytes survive a process
  /// crash (they are in the page cache) but not a system crash.
  Status AppendParts(std::initializer_list<std::string_view> parts);

  /// Makes every appended byte durable: one fdatasync ("append-fsync"
  /// hook op). No-op when nothing is unsynced or no file is open.
  Status Sync();

 private:
  int fd_ = -1;
  bool dirty_ = false;
  std::string path_;
};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `data`.
uint32_t Crc32(std::string_view data);

/// Streaming form: extends a previous Crc32/Crc32Extend result with more
/// bytes — Crc32Extend(Crc32Extend(0, a), b) == Crc32(a + b), so a
/// record assembled from pieces can be checksummed without concatenating
/// them. Pass 0 for an empty prefix.
uint32_t Crc32Extend(uint32_t crc, std::string_view data);

/// Atomically writes a checksummed container:
///
///   <magic>\n
///   crc32 <8-hex-digits> size <payload-bytes>\n
///   <payload>
///
/// so readers can reject truncated or bit-rotted files before interpreting
/// a single payload byte. Uses AtomicWriteFile underneath.
Status WriteChecksummedFile(const std::string& path, std::string_view magic,
                            std::string_view payload);

/// Reads a container written by WriteChecksummedFile and verifies it end to
/// end: magic mismatch -> InvalidArgument (naming the file's version when
/// only the version differs, e.g. a retired "ATENA-NN v2" read as
/// "ATENA-NN v3"); short/overlong file or size
/// mismatch -> IOError("... truncated ..."); checksum mismatch ->
/// IOError("... checksum mismatch ..."). `*payload` is only modified when
/// every check passes.
Status ReadChecksummedFile(const std::string& path, std::string_view magic,
                           std::string* payload);
/// ReadChecksummedFile over the bytes `raw` already read from `path`.
Status ParseChecksummedFile(std::string_view raw, const std::string& path,
                            std::string_view magic, std::string* payload);

/// Fault-injection hook for tests. When set, it is consulted before each
/// low-level step of AtomicWriteFile — `op` is one of "open", "write",
/// "fsync", "rename", "dirsync" — and of DurableAppender ("append-open",
/// "append-dirsync", "append-write", "append-fsync") — and returning true
/// makes that step fail
/// as if the kernel had returned EIO (temp-file cleanup still runs, so the
/// atomicity contract can be asserted under every failure point). Pass an
/// empty function to clear. Not thread-safe; tests only.
using FileIoFailureHook =
    std::function<bool(const char* op, const std::string& path)>;
void SetFileIoFailureHookForTesting(FileIoFailureHook hook);

}  // namespace atena

#endif  // ATENA_COMMON_FILE_IO_H_
