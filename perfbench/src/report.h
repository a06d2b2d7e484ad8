// Shared vocabulary of the benchmark: run options, the result a workload
// returns (checks, attempted/failed counts, metrics) and small statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set-up is measured this many times per run; the median is reported.
inline constexpr unsigned kSetupRepeats = 5;
/// Seed of the warm-up inputs.  Fixed, not drawn from --seed: set-up then
/// does the same work on every run, so setup_s measures set-up cost
/// rather than how hard one seed's warm-up keys happen to be.
inline constexpr std::uint64_t kWarmupSeed = 0x5E7A9ull;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Nearest-rank percentile, p in (0, 100]; 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// Quotient that reads 0 instead of dividing by zero (a layer that never
/// ran on a workload reports 0 work).
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Peak resident set of this process so far, in MiB.  Read from
/// /proc/self/status VmHWM, the high-water mark of this program's own
/// address space; getrusage's ru_maxrss would also count the launcher's
/// peak, which Linux carries across exec.
[[nodiscard]] inline double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

/// "label: v1 v2 ..." with each value in milliseconds.
[[nodiscard]] inline std::string ms_list(const std::string& label,
                                         const std::vector<double>& seconds) {
  std::string out = label + " (ms):";
  for (const double s : seconds) {
    out += ' ';
    out += std::to_string(s * 1e3);
  }
  return out;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Pool size: min(nproc, 4).
  unsigned workers = 1;
  /// Scratch directory for results files, checkpoints and the trace.
  std::string out_dir;
  /// Run context as a JSON object, embedded in the trace file.
  std::string context_json = "{}";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  /// Operations attempted (key recoveries), those whose output was wrong
  /// (a recovered key other than the victim's), and those that ended
  /// without a key: a partial result the attack reports as such, counted
  /// in verified_share rather than as a failure.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t unverified = 0;
  /// Failed output checks; empty means every output was correct.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Metrics printed in the table but left out of the result JSON,
  /// because they are 0 on some workloads (see README.md).
  std::vector<Metric> printed_only;
  /// Human-readable lines printed above the result (sample counts,
  /// numbers that are not gated metrics).
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

}  // namespace perfbench
