// Measurement helpers shared by the benchmark workloads: the clock,
// order statistics, process resource counters, trace digests and the
// result record every workload fills in.
#ifndef ATENA_PERFBENCH_MEASURE_H_
#define ATENA_PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eda/operation.h"
#include "nn/parameter.h"
#include "serve/session_manager.h"

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNanos();
inline double Seconds(int64_t nanos) { return static_cast<double>(nanos) * 1e-9; }

/// Linear-interpolated quantile q in [0,1] of `values` (copied, sorted).
/// Empty input gives 0.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set of the process so far, in MiB.
double PeakRssMb();
/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();
int HardwareThreads();

/// CRC32 over everything that makes a served trace: the session seed,
/// every step's operation, validity, reward bits and display signature,
/// and the total reward. The session id is a label and is left out.
uint32_t TraceCrc(uint32_t crc, const atena::SessionTrace& trace);
/// CRC32 over the bytes of one integer.
uint32_t Int64Crc(uint32_t crc, int64_t value);
/// CRC32 over an operation list (kind, parameters, terms).
uint32_t OpsCrc(uint32_t crc, const std::vector<atena::EdaOperation>& ops);
/// CRC32 over the raw bits of doubles.
uint32_t DoublesCrc(uint32_t crc, const std::vector<double>& values);
/// CRC32 over the exact text serialization of a parameter list.
uint32_t WeightsCrc(const std::vector<atena::Parameter*>& params);

/// A-EDA scores of one notebook against the gold views.
struct Quality {
  double eda_sim = 0.0;
  double precision = 0.0;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the verdict, the counts and the
/// metric set for the requested mode (end-to-end or per-layer).
struct RunResult {
  bool correct = true;
  std::string error;  // first failed check, empty when correct
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  /// Records a failed check (the first one is kept as the error).
  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the smoke test; never used for measurements.
  bool smoke = false;
  /// Directory for the journal, checkpoints and the span dump.
  std::string scratch;
};

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // ATENA_PERFBENCH_MEASURE_H_
