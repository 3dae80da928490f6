#ifndef ATENA_BENCH_BENCH_JSON_H_
#define ATENA_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/string_utils.h"

namespace atena {
namespace bench {

/// Attaches p50/p95/p99 latency counters (milliseconds) computed from
/// per-event durations in seconds. Counters flow into the console table
/// and — via JsonFileReporter below — into the BENCH_*.json summary, so
/// any bench binary that collects per-step/per-query samples reports tail
/// latency the same way.
inline void AddLatencyPercentiles(benchmark::State& state,
                                  const std::vector<double>& seconds,
                                  const std::string& prefix = "latency") {
  const double to_ms = 1e3;
  state.counters[prefix + "_p50_ms"] =
      benchmark::Counter(Percentile(seconds, 50.0) * to_ms);
  state.counters[prefix + "_p95_ms"] =
      benchmark::Counter(Percentile(seconds, 95.0) * to_ms);
  state.counters[prefix + "_p99_ms"] =
      benchmark::Counter(Percentile(seconds, 99.0) * to_ms);
}

/// Takes `--bench_json=PATH` out of a bench main's arguments, before
/// benchmark::Initialize sees them, and returns PATH (empty when the flag is
/// absent). A bench writes its JSON summary only to a path it is given, so
/// an exploratory or filtered run never replaces a committed
/// BENCH_<name>.json; scripts/bench.sh names the committed files.
inline std::string TakeJsonPath(int* argc, char** argv) {
  constexpr std::string_view kFlag = "--bench_json=";
  std::string path;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) == kFlag) {
      path = std::string(arg.substr(kFlag.size()));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argv[kept] = nullptr;
  *argc = kept;
  return path;
}

/// Console reporter that additionally records every iteration run and, at
/// Finalize, writes a compact machine-readable JSON summary (per-iteration
/// times, items/sec and all user counters such as cache_hit_rate) to the
/// path it was given (TakeJsonPath); with an empty path it writes nothing.
///
/// The summary opens with a "context" object: the benchmark filter and the
/// command line the bench main received (`args`, taken before
/// benchmark::Initialize consumes its flags, without the output path). Rows
/// measured with different filters or flags differ, so rows are compared
/// only under one context.
class JsonFileReporter : public benchmark::ConsoleReporter {
 public:
  JsonFileReporter(std::string path, std::vector<std::string> args)
      : path_(std::move(path)), args_(std::move(args)) {
    // The program by name: where it was built is not how it measured.
    if (!args_.empty()) {
      args_[0] = args_[0].substr(args_[0].find_last_of('/') + 1);
    }
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        runs_.push_back(run);
      }
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    if (path_.empty()) return;
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(out,
                 "{\n  \"context\": {\"benchmark_filter\": %s, \"args\": [",
                 JsonString(benchmark::GetBenchmarkFilter()).c_str());
    for (size_t i = 0; i < args_.size(); ++i) {
      std::fprintf(out, "%s%s", i > 0 ? ", " : "",
                   JsonString(args_[i]).c_str());
    }
    std::fprintf(out, "]},\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < runs_.size(); ++i) {
      const Run& run = runs_[i];
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"iterations\": %lld, "
                   "\"real_time_sec\": %.9g, \"cpu_time_sec\": %.9g",
                   run.benchmark_name().c_str(),
                   static_cast<long long>(run.iterations),
                   run.real_accumulated_time / iters,
                   run.cpu_accumulated_time / iters);
      for (const auto& [name, counter] : run.counters) {
        std::fprintf(out, ", \"%s\": %.9g", name.c_str(),
                     static_cast<double>(counter));
      }
      std::fprintf(out, "}%s\n", i + 1 < runs_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s (%zu benchmarks)\n", path_.c_str(), runs_.size());
  }

 private:
  std::string path_;
  std::vector<std::string> args_;
  std::vector<Run> runs_;
};

}  // namespace bench
}  // namespace atena

#endif  // ATENA_BENCH_BENCH_JSON_H_
