#include "serve/health_log.h"

#include <cstdio>
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

std::string JsonString(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 2);
  out += '"';
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace atena
