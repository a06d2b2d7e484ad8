// In-memory span recorder of the traced run.
//
// Spans are recorded by the benchmark's own code around each call it
// makes into a module (runner, campaign, target, finisher, the reference
// ciphers); the library itself is not instrumented.  Each span carries a
// name, start/end, the span that caused it, the recording thread and one
// integer argument (shard, trial or call index).  They stay in memory
// until the run ends, when write_chrome_trace() dumps them as Chrome
// trace-event JSON (open it in https://ui.perfetto.dev).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  unsigned thread = 0;
  const char* arg_name = "";
  std::int64_t arg = -1;  ///< -1 = none

  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Reserves an id for a span that is about to start, so that children
  /// recorded before it ends can name it as their parent.
  [[nodiscard]] std::uint64_t next_id();

  void record(Span span);

  /// True when a span could not be stored (out of memory); the metrics
  /// are then incomplete.
  [[nodiscard]] bool lost() const noexcept { return lost_.load(); }
  void mark_lost() noexcept { lost_.store(true); }

  /// Durations, in seconds, of every span named `name`.
  [[nodiscard]] std::vector<double> seconds_of(const std::string& name) const;
  /// Sum of those durations.
  [[nodiscard]] double total_seconds(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON with `context_json` (a
  /// JSON object) under "otherData".  False on I/O failure.
  [[nodiscard]] bool write_chrome_trace(const std::string& path,
                                        const std::string& context_json) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::atomic<bool> lost_{false};
};

/// Records one span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent = 0,
             const char* arg_name = "", std::int64_t arg = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

}  // namespace perfbench
