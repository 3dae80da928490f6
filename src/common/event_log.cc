#include "common/event_log.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace atena {

namespace {

/// A crash during an append can leave a torn final line; this atomically
/// rewrites `path` without the bytes after its last '\n', so readers see
/// only complete lines and the next append starts on a line boundary.
/// `*complete_lines` is set to the number of complete lines whenever the
/// file could be read, even if the rewrite then fails.
Status TrimTornFinalLine(const std::string& path, int64_t* complete_lines) {
  std::string raw;
  ATENA_RETURN_IF_ERROR(ReadFileToString(path, &raw));
  const size_t last_newline = raw.find_last_of('\n');
  const size_t complete =
      last_newline == std::string::npos ? 0 : last_newline + 1;
  *complete_lines = std::count(raw.begin(), raw.begin() + complete, '\n');
  if (complete == raw.size()) return Status::OK();
  return AtomicWriteFile(path, std::string_view(raw).substr(0, complete));
}

}  // namespace

EventLog::EventLog(std::string path) : path_(std::move(path)) {}

void EventLog::Continue() {
  if (path_.empty()) return;
  file_.Close();
  events_ = 0;
  adopted_ = true;
  if (!FileExists(path_)) return;
  int64_t lines = -1;
  Status trimmed = TrimTornFinalLine(path_, &lines);
  if (!trimmed.ok()) {
    ATENA_LOG(kWarning) << "event log '" << path_
                        << "' could not be continued: " << trimmed;
  }
  // A log that was read but not trimmed is kept; one that could not be
  // read is replaced by the next event.
  adopted_ = lines >= 0;
  if (adopted_) events_ = lines;
}

void EventLog::Append(std::string_view type, std::string_view fields) {
  if (path_.empty()) return;
  ++events_;
  Status written = Write(type, fields);
  if (!written.ok()) {
    ATENA_LOG(kWarning) << "event log '" << path_
                        << "' write failed: " << written;
  }
}

Status EventLog::Write(std::string_view type, std::string_view fields) {
  if (!file_.is_open()) {
    if (!adopted_ && FileExists(path_) && std::remove(path_.c_str()) != 0) {
      return Status::IOError("could not replace the older log: " +
                             std::string(std::strerror(errno)));
    }
    ATENA_RETURN_IF_ERROR(file_.Open(path_));
    adopted_ = true;
  }
  char head[48];
  const int len =
      std::snprintf(head, sizeof(head), "{\"event\":%lld,\"type\":\"",
                    static_cast<long long>(events_));
  ATENA_RETURN_IF_ERROR(file_.AppendParts(
      {std::string_view(head, static_cast<size_t>(len)), type,
       fields.empty() ? "\"" : "\",", fields, "}\n"}));
  return file_.Sync();
}

}  // namespace atena
