#ifndef ATENA_COMMON_EVENT_LOG_H_
#define ATENA_COMMON_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/file_io.h"

namespace atena {

/// The one JSONL event log (DESIGN.md §13): the serving health log and the
/// training guard's log both write through it. Every line is one object,
///
///   {"event":N,"type":"<type>",<fields>}
///
/// numbered from the log's own lines: a continued log resumes after its
/// last complete line. Each event is one gather write plus one fdatasync
/// (DurableAppender), so N events cost O(N) bytes, and a crash mid-append
/// can only tear the *final* line — which Continue trims, so every line a
/// reader ever sees is complete. The file is created at the first event.
/// A write failure logs a warning and never reaches the caller: logging
/// must not take serving or training down with it. Not thread-safe.
class EventLog {
 public:
  /// An empty path disables the log: Append becomes a no-op. Until
  /// Continue is called, the first event replaces any older file at the
  /// path (a fresh training run's log).
  explicit EventLog(std::string path);

  /// Adopts the log already at the path, if any: trims a torn final line
  /// and numbers the next event after its last complete line. A file that
  /// cannot be read is replaced by the next event instead.
  void Continue();

  bool enabled() const { return !path_.empty(); }
  int64_t events() const { return events_; }

  /// Durably appends `{"event":<n>,"type":"<type>",<fields>}` as one line.
  /// `type` is an identifier, written unescaped; `fields` is the
  /// comma-separated interior of the object after the type (already
  /// JSON-escaped, e.g. via JsonString/JsonNumber), or empty.
  void Append(std::string_view type, std::string_view fields);

 private:
  Status Write(std::string_view type, std::string_view fields);

  std::string path_;
  int64_t events_ = 0;
  /// False until the file at the path belongs to this log: Continue
  /// adopted it, or the first event replaced it.
  bool adopted_ = false;
  DurableAppender file_;
};

}  // namespace atena

#endif  // ATENA_COMMON_EVENT_LOG_H_
