#ifndef ATENA_SERVE_HEALTH_LOG_H_
#define ATENA_SERVE_HEALTH_LOG_H_

#include <cstdint>
#include <string>

namespace atena {

/// JSONL serving-health log (DESIGN.md §13): one JSON object per fault-
/// domain event — quarantine, degradation transition, deadline retirement,
/// load shed, snapshot reload attempt/outcome, hard stop, journal append/
/// compaction failures and recovery outcomes. Each event is one durable
/// append (AppendDurableFile: O_APPEND + fsync), so the cost of N events is
/// O(N) total rather than the O(N²) a whole-file rewrite per event would
/// be, and a crash mid-append can only leave a torn *final* line — which
/// the constructor detects and trims when the log is reopened, so every
/// line a reader ever sees is complete.
///
/// Schema (all events): {"event":N,"type":"...","detail":"..."} plus
/// per-type fields — "session"/"step" for per-session events, "stage" for
/// degradations, "path"/"attempt" for reloads. Event numbers continue
/// across process restarts: reopening an existing log resumes numbering
/// after its last complete line. Field values are built by the
/// SessionManager; this class only owns ordering, escaping helpers and the
/// durable append.
class ServingHealthLog {
 public:
  /// An empty path disables the log: Append becomes a no-op. A non-empty
  /// path pointing at an existing log reloads its event count (tolerating
  /// — and trimming — a torn final line from a crash mid-append).
  explicit ServingHealthLog(std::string path);

  bool enabled() const { return !path_.empty(); }
  int64_t events() const { return events_; }

  /// Durably appends `{"event":<n>,<body>}` as one line. `body` is the
  /// comma-separated interior of the object (already JSON-escaped, e.g.
  /// via JsonString/JsonNumber). Write failures are logged as warnings and
  /// never fail serving.
  void Append(const std::string& body);

 private:
  std::string path_;
  int64_t events_ = 0;
};

}  // namespace atena

#endif  // ATENA_SERVE_HEALTH_LOG_H_
