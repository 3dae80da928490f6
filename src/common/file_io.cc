#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/record_codec.h"

namespace atena {

namespace {

FileIoFailureHook& FailureHook() {
  static FileIoFailureHook hook;
  return hook;
}

/// Returns true (and synthesizes EIO) when the test hook asks step `op` on
/// `path` to fail.
bool InjectFailure(const char* op, const std::string& path) {
  if (FailureHook() && FailureHook()(op, path)) {
    errno = EIO;
    return true;
  }
  return false;
}

std::string ErrnoDetail() {
  return std::string(std::strerror(errno)) + " (errno " +
         std::to_string(errno) + ")";
}

Status StepError(const char* op, const std::string& path) {
  return Status::IOError(std::string(op) + " failed for '" + path + "': " +
                         ErrnoDetail());
}

/// Directory component of `path` ("." when it has none) — the directory
/// whose entry list the rename mutates, and therefore the one to fsync.
std::string DirectoryOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// A magic line that differs from `magic` only in its version token (the
/// text after the last space) names that version, so a file in a retired
/// format says why it is refused.
Status MagicMismatch(const std::string& path, std::string_view magic,
                     std::string_view found) {
  const size_t space = magic.rfind(' ');
  if (space != std::string_view::npos &&
      found.substr(0, space + 1) == magic.substr(0, space + 1)) {
    const std::string_view version = found.substr(space + 1);
    if (!version.empty() && version.size() <= 16 &&
        version.find(' ') == std::string_view::npos) {
      return Status::InvalidArgument(
          "'" + path + "' is " + std::string(magic.substr(0, space)) +
          " version '" + std::string(version) +
          "', which is not supported; only " + std::string(magic) +
          " can be read");
    }
  }
  return Status::InvalidArgument("'" + path + "' is not a " +
                                 std::string(magic) + " file");
}

}  // namespace

void SetFileIoFailureHookForTesting(FileIoFailureHook hook) {
  FailureHook() = std::move(hook);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  int fd = -1;
  if (InjectFailure("open", path) ||
      (fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)) < 0) {
    return StepError("open", tmp);
  }
  // Write the whole buffer, tolerating short writes.
  const char* data = contents.data();
  size_t remaining = contents.size();
  while (remaining > 0) {
    ssize_t n;
    if (InjectFailure("write", path) ||
        (n = ::write(fd, data, remaining)) < 0) {
      Status error = StepError("write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return error;
    }
    data += n;
    remaining -= static_cast<size_t>(n);
  }
  // fsync before rename: the rename must never publish a file whose data
  // blocks are still only in the page cache.
  if (InjectFailure("fsync", path) || ::fsync(fd) != 0) {
    Status error = StepError("fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return error;
  }
  if (::close(fd) != 0) {
    Status error = StepError("close", tmp);
    ::unlink(tmp.c_str());
    return error;
  }
  if (InjectFailure("rename", path) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status error = StepError("rename", tmp);
    ::unlink(tmp.c_str());
    return error;
  }
  // Make the rename itself durable. Failure here is still reported, but the
  // target already holds the new contents (no cleanup to do).
  const std::string dir = DirectoryOf(path);
  int dir_fd;
  if (InjectFailure("dirsync", path) ||
      (dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY)) < 0) {
    return StepError("dirsync-open", dir);
  }
  if (::fsync(dir_fd) != 0) {
    Status error = StepError("dirsync", dir);
    ::close(dir_fd);
    return error;
  }
  ::close(dir_fd);
  return Status::OK();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return StepError("open", path);
  std::string buffer;
  char chunk[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      Status error = StepError("read", path);
      ::close(fd);
      return error;
    }
    if (n == 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  *out = std::move(buffer);
  return Status::OK();
}

DurableAppender::~DurableAppender() { Close(); }

void DurableAppender::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  dirty_ = false;
}

Status DurableAppender::Open(const std::string& path) {
  Close();
  const bool existed = FileExists(path);
  int fd = -1;
  if (InjectFailure("append-open", path) ||
      (fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644)) < 0) {
    return StepError("append-open", path);
  }
  if (!existed) {
    // Creation must reach the directory before any append can claim
    // durability (the AtomicWriteFile rename discipline).
    const std::string dir = DirectoryOf(path);
    int dir_fd;
    if (InjectFailure("append-dirsync", path) ||
        (dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY)) < 0) {
      ::close(fd);
      return StepError("append-dirsync-open", dir);
    }
    if (::fsync(dir_fd) != 0) {
      Status error = StepError("append-dirsync", dir);
      ::close(dir_fd);
      ::close(fd);
      return error;
    }
    ::close(dir_fd);
  }
  fd_ = fd;
  path_ = path;
  return Status::OK();
}

Status DurableAppender::AppendParts(
    std::initializer_list<std::string_view> parts) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("DurableAppender: no file open");
  }
  // Gather write: the parts land in the file as their concatenation
  // without the caller assembling (and copying into) a contiguous
  // buffer — the journal's group commit appends a multi-kilobyte payload
  // per tick, where that copy is pure overhead.
  struct iovec iov[16];
  size_t count = 0;
  size_t total = 0;
  for (const std::string_view part : parts) {
    if (part.empty()) continue;
    if (count == sizeof(iov) / sizeof(iov[0])) {
      return Status::InvalidArgument("AppendParts: too many parts");
    }
    iov[count].iov_base = const_cast<char*>(part.data());
    iov[count].iov_len = part.size();
    ++count;
    total += part.size();
  }
  size_t done = 0;
  size_t first = 0;
  while (done < total) {
    ssize_t n;
    if (InjectFailure("append-write", path_) ||
        (n = ::writev(fd_, iov + first, static_cast<int>(count - first))) <
            0) {
      // A short prefix may already be in the file — the torn suffix
      // readers of append-only files are required to tolerate.
      if (done > 0) dirty_ = true;
      return StepError("append-write", path_);
    }
    done += static_cast<size_t>(n);
    // Skip fully-written iovecs and trim a partially-written one.
    size_t written = static_cast<size_t>(n);
    while (first < count && written >= iov[first].iov_len) {
      written -= iov[first].iov_len;
      ++first;
    }
    if (first < count && written > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + written;
      iov[first].iov_len -= written;
    }
  }
  if (total > 0) dirty_ = true;
  return Status::OK();
}

Status DurableAppender::Sync() {
  if (fd_ < 0 || !dirty_) return Status::OK();
  // fdatasync, not fsync: the data and the size metadata needed to read it
  // back are persisted; mtime and friends can lag.
  if (InjectFailure("append-fsync", path_) || ::fdatasync(fd_) != 0) {
    return StepError("append-fsync", path_);
  }
  dirty_ = false;
  return Status::OK();
}

uint32_t Crc32Extend(uint32_t crc, std::string_view data) {
  // Slice-by-8 CRC-32 (reflected polynomial 0xEDB88320): eight tables so
  // the inner loop folds 8 input bytes per iteration instead of one —
  // the journal checksums every group-committed tick record on the
  // serving hot path, where the classic byte-at-a-time loop was the
  // single most expensive part of an append. Tables are built once on
  // first use; slice 0 equals the classic table, so results are
  // unchanged.
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t slice = 1; slice < 8; ++slice) {
        crc = (crc >> 8) ^ t[0][crc & 0xFFu];
        t[slice][i] = crc;
      }
    }
    return t;
  }();
  // Composable form: un-finalize the incoming value so that
  // Crc32Extend(Crc32Extend(0, a), b) == Crc32(a + b) — an initial 0
  // un-finalizes to the standard 0xFFFFFFFF seed.
  crc ^= 0xFFFFFFFFu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  while (n >= 8) {
    // Byte-wise loads keep the fold endianness-independent.
    const uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                               static_cast<uint32_t>(p[1]) << 8 |
                               static_cast<uint32_t>(p[2]) << 16 |
                               static_cast<uint32_t>(p[3]) << 24);
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][p[4]] ^ tables[2][p[5]] ^ tables[1][p[6]] ^
          tables[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ tables[0][(crc ^ *p++) & 0xFFu];
    --n;
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::string_view data) { return Crc32Extend(0, data); }

Status WriteChecksummedFile(const std::string& path, std::string_view magic,
                            std::string_view payload) {
  std::string framed(magic);
  framed += "\ncrc32 ";
  char crc[8];
  framed.append(crc, PutHex(crc, Crc32(payload), 8));
  framed += " size ";
  Num(framed, payload.size());
  framed += '\n';
  framed += payload;
  return AtomicWriteFile(path, framed);
}

Status ReadChecksummedFile(const std::string& path, std::string_view magic,
                           std::string* payload) {
  std::string raw;
  ATENA_RETURN_IF_ERROR(ReadFileToString(path, &raw));
  return ParseChecksummedFile(raw, path, magic, payload);
}

Status ParseChecksummedFile(std::string_view raw, const std::string& path,
                            std::string_view magic, std::string* payload) {
  // Magic line.
  const size_t magic_end = raw.find('\n');
  const std::string_view found =
      magic_end == std::string::npos ? std::string_view()
                                     : raw.substr(0, magic_end);
  if (magic_end == std::string::npos || found != magic) {
    return MagicMismatch(path, magic, found);
  }
  // Header line: "crc32 <hex> size <n>".
  size_t header_end = raw.find('\n', magic_end + 1);
  if (header_end == std::string::npos) {
    return Status::IOError("'" + path + "' truncated: no checksum header");
  }
  std::istringstream header(
      std::string(raw.substr(magic_end + 1, header_end - magic_end - 1)));
  std::string crc_key, size_key;
  std::string crc_hex;
  uint64_t declared_size = 0;
  header >> crc_key >> crc_hex >> size_key >> declared_size;
  uint32_t declared_crc = 0;
  if (!header || crc_key != "crc32" || size_key != "size" ||
      !ParseCrc32(crc_hex, &declared_crc)) {
    return Status::IOError("'" + path + "' has a malformed checksum header");
  }
  const size_t body_start = header_end + 1;
  if (raw.size() - body_start != declared_size) {
    return Status::IOError(
        "'" + path + "' truncated: payload has " +
        std::to_string(raw.size() - body_start) + " bytes, header declares " +
        std::to_string(declared_size));
  }
  std::string body(raw.substr(body_start));
  const uint32_t actual_crc = Crc32(body);
  if (actual_crc != declared_crc) {
    char actual[8];
    return Status::IOError("'" + path + "' checksum mismatch: header " +
                           crc_hex + ", payload " +
                           std::string(actual, PutHex(actual, actual_crc, 8)));
  }
  *payload = std::move(body);
  return Status::OK();
}

}  // namespace atena
