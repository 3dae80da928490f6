#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/file_io.h"
#include "nn/serialization.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

template <typename T>
uint32_t PodCrc(uint32_t crc, const T& value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  return atena::Crc32Extend(crc, std::string_view(bytes, sizeof(T)));
}

uint32_t OpCrc(uint32_t crc, const atena::EdaOperation& op) {
  crc = PodCrc(crc, static_cast<int>(op.type));
  if (op.type == atena::OpType::kFilter) {
    crc = PodCrc(crc, op.filter.column);
    crc = PodCrc(crc, static_cast<int>(op.filter.op));
    crc = PodCrc(crc, op.filter.term_bin);
    crc = atena::Crc32Extend(crc, op.filter.term.ToString());
  } else if (op.type == atena::OpType::kGroup) {
    crc = PodCrc(crc, op.group.group_column);
    crc = PodCrc(crc, static_cast<int>(op.group.agg));
    crc = PodCrc(crc, op.group.agg_column);
  }
  return crc;
}

}  // namespace

uint32_t TraceCrc(uint32_t crc, const atena::SessionTrace& trace) {
  crc = PodCrc(crc, trace.seed);
  crc = PodCrc(crc, trace.total_reward);
  for (const atena::ServedStep& step : trace.steps) {
    crc = OpCrc(crc, step.op);
    crc = PodCrc(crc, step.valid);
    crc = PodCrc(crc, step.reward);
    crc = PodCrc(crc, step.display_signature);
  }
  return crc;
}

uint32_t Int64Crc(uint32_t crc, int64_t value) { return PodCrc(crc, value); }

uint32_t OpsCrc(uint32_t crc, const std::vector<atena::EdaOperation>& ops) {
  for (const atena::EdaOperation& op : ops) crc = OpCrc(crc, op);
  return crc;
}

uint32_t DoublesCrc(uint32_t crc, const std::vector<double>& values) {
  for (double v : values) crc = PodCrc(crc, v);
  return crc;
}

uint32_t WeightsCrc(const std::vector<atena::Parameter*>& params) {
  return atena::Crc32(atena::SerializeParameters(params));
}

void RunResult::Fail(const std::string& why) {
  if (correct) error = why;
  correct = false;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
