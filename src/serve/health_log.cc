#include "serve/health_log.h"

#include <utility>

#include "common/file_io.h"
#include "common/logging.h"

namespace atena {

ServingHealthLog::ServingHealthLog(std::string path)
    : path_(std::move(path)) {
  if (path_.empty() || !FileExists(path_)) return;
  // Reopening an existing log: continue event numbering after its last
  // complete line, trimming a torn final line from a crash mid-append.
  Status reopened = TrimTornFinalLine(path_, &events_);
  if (!reopened.ok()) {
    ATENA_LOG(kWarning) << "serving health log reload failed: " << reopened;
  }
}

void ServingHealthLog::Append(const std::string& body) {
  if (path_.empty()) return;
  ++events_;
  const std::string line =
      "{\"event\":" + std::to_string(events_) + "," + body + "}\n";
  Status written = AppendDurableFile(path_, line);
  if (!written.ok()) {
    ATENA_LOG(kWarning) << "serving health log write failed: " << written;
  }
}

}  // namespace atena
