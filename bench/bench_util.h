// Shared harness for the experiment-reproduction binaries.
//
// Every bench prints (a) the paper's reference numbers and (b) the values
// measured from this reproduction, in the same row/column shape as the
// paper's table or figure, so EXPERIMENTS.md can be regenerated by
// running `build/bench/*`.
//
// Common flags (BenchContext):
//   --quick       reduced trial counts / grids (CI smoke mode)
//   --threads N   parallelism for trial sharding (0/default = all cores)
//   --json PATH   also write structured results + config + wall-clock
//
// Determinism contract (docs/RUNNER.md): per-trial RNG material is
// pre-derived serially in trial order (runner::derive_trial_seeds), so
// result tables and the JSON "tables"/"metrics"/"config" sections are
// byte-identical for any --threads value.  Wall-clock goes to stderr and
// the JSON "timing" section only — never into the tables.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/grinch.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "runner/thread_pool.h"
#include "runner/trial_runner.h"
#include "soc/platform.h"
#include "target/registry.h"

namespace grinch::bench {

/// Serializes a rendered table's structure for the JSON report.
inline json::Value table_json(const AsciiTable& table) {
  json::Value obj = json::Value::object();
  obj.set("title", table.title());
  json::Value header = json::Value::array();
  for (const std::string& h : table.header()) header.push(h);
  obj.set("header", std::move(header));
  json::Value rows = json::Value::array();
  for (const std::vector<std::string>& row : table.data()) {
    json::Value r = json::Value::array();
    for (const std::string& cell : row) r.push(cell);
    rows.push(std::move(r));
  }
  obj.set("rows", std::move(rows));
  return obj;
}

/// Per-binary harness state: flag parsing, the shared thread pool, and
/// the structured-result recorder behind --json.
class BenchContext {
 public:
  /// Parses --quick / --threads / --json from argv.  With
  /// `allow_unknown`, unrecognized arguments are collected into
  /// passthrough_args() (micro_throughput forwards them to
  /// google-benchmark); otherwise they abort with a usage message.
  BenchContext(int argc, char** argv, bool allow_unknown = false)
      : start_(std::chrono::steady_clock::now()) {
    name_ = argc > 0 ? basename_of(argv[0]) : "bench";
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--quick") {
        quick_ = true;
      } else if (a == "--threads" && i + 1 < argc) {
        threads_ = parse_unsigned(argv[++i]);
      } else if (a.rfind("--threads=", 0) == 0) {
        threads_ = parse_unsigned(a.substr(10).c_str());
      } else if (a == "--json" && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (a.rfind("--json=", 0) == 0) {
        json_path_ = a.substr(7);
      } else if (allow_unknown) {
        passthrough_.push_back(a);
      } else {
        std::fprintf(stderr,
                     "%s: unknown argument '%s'\n"
                     "usage: %s [--quick] [--threads N] [--json PATH]\n",
                     name_.c_str(), a.c_str(), name_.c_str());
        std::exit(2);
      }
    }
    config_ = json::Value::object();
    metrics_ = json::Value::object();
    tables_ = json::Value::array();
    timing_ = json::Value::object();
  }

  [[nodiscard]] bool quick() const noexcept { return quick_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& json_path() const noexcept {
    return json_path_;
  }
  [[nodiscard]] const std::vector<std::string>& passthrough_args()
      const noexcept {
    return passthrough_;
  }

  /// Resolved parallelism (--threads, or all cores).
  [[nodiscard]] unsigned threads() const noexcept {
    return threads_ != 0 ? threads_
                         : runner::ThreadPool::default_thread_count();
  }

  /// The shared pool, constructed on first use.
  [[nodiscard]] runner::ThreadPool& pool() {
    if (!pool_) pool_ = std::make_unique<runner::ThreadPool>(threads_);
    return *pool_;
  }

  /// Records a config entry ("what was run") for the JSON report.
  void set_config(const std::string& key, json::Value v) {
    config_.set(key, std::move(v));
  }

  /// Records a scalar result ("what came out") for the JSON report.
  /// Metrics are part of the determinism-compared document — never put
  /// wall-clock here; use set_timing.
  void set_metric(const std::string& key, json::Value v) {
    metrics_.set(key, std::move(v));
  }

  /// Records a wall-clock figure.  The timing section is excluded from
  /// results_json(false), so run-to-run variance never breaks the
  /// determinism comparison.
  void set_timing(const std::string& key, json::Value v) {
    timing_.set(key, std::move(v));
  }

  /// Prints a table (flushed: bench output is consumed by tee) and
  /// records its structure for the JSON report.
  void print_table(const AsciiTable& table) {
    std::fputs(table.render().c_str(), stdout);
    std::fputs("\n", stdout);
    std::fflush(stdout);
    tables_.push(table_json(table));
  }

  /// The structured document.  `include_run_info` adds the sections that
  /// legitimately differ between runs (thread count, wall-clock); the
  /// determinism suite compares documents without them.
  [[nodiscard]] json::Value results_json(bool include_run_info) const {
    json::Value doc = json::Value::object();
    doc.set("bench", name_);
    doc.set("quick", quick_);
    if (include_run_info) {
      json::Value run = json::Value::object();
      run.set("threads", pool_ ? pool_->thread_count() : threads());
      doc.set("run", std::move(run));
    }
    doc.set("config", config_);
    doc.set("metrics", metrics_);
    doc.set("tables", tables_);
    if (include_run_info) {
      json::Value timing = timing_;
      timing.set("wall_seconds", elapsed_seconds());
      doc.set("timing", std::move(timing));
    }
    return doc;
  }

  /// Wall-clock since construction.
  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Reports wall-clock to stderr and, with --json, writes the report.
  /// Returns the process exit code (0, or 1 when the JSON write failed).
  int finish() {
    std::fprintf(stderr, "[%s] wall %.2fs (threads=%u)\n", name_.c_str(),
                 elapsed_seconds(), threads());
    if (json_path_.empty()) return 0;
    std::ofstream out{json_path_};
    out << results_json(true).dump();
    if (!out) {
      std::fprintf(stderr, "%s: failed to write %s\n", name_.c_str(),
                   json_path_.c_str());
      return 1;
    }
    return 0;
  }

 private:
  static std::string basename_of(const char* argv0) {
    std::string s{argv0};
    const std::size_t slash = s.find_last_of('/');
    return slash == std::string::npos ? s : s.substr(slash + 1);
  }

  static unsigned parse_unsigned(const char* s) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (end == s || *end != '\0') {
      std::fprintf(stderr, "bench: expected a number, got '%s'\n", s);
      std::exit(2);
    }
    return static_cast<unsigned>(v);
  }

  std::string name_;
  bool quick_ = false;
  unsigned threads_ = 0;  ///< 0 = all cores
  std::string json_path_;
  std::vector<std::string> passthrough_;
  std::unique_ptr<runner::ThreadPool> pool_;
  json::Value config_;
  json::Value metrics_;
  json::Value tables_;
  json::Value timing_;
  std::chrono::steady_clock::time_point start_;
};

/// Runs one stage-0 ("break the 1st GIFT round", 32 key bits) attack and
/// returns the encryption count, or nullopt on drop-out *or wrong
/// recovery* (the harness knows the ground-truth key; an attack that
/// converged on wrong bits counts as a failure, which matters on noisy
/// configurations).  `attack_template` carries every GrinchConfig knob
/// except stages / max_encryptions / seed, which the harness owns.
inline std::optional<std::uint64_t> first_round_effort(
    const soc::DirectProbePlatform::Config& pcfg, const Key128& key,
    std::uint64_t budget, std::uint64_t seed,
    const attack::GrinchConfig& attack_template) {
  soc::DirectProbePlatform platform{pcfg, key};
  attack::GrinchConfig acfg = attack_template;
  acfg.stages = 1;
  acfg.max_encryptions = budget;
  acfg.seed = seed;
  attack::GrinchAttack attack{platform, acfg};
  const attack::AttackResult r = attack.run();
  if (!r.success || r.round_keys.size() != 1) return std::nullopt;
  const gift::RoundKey64 truth = gift::extract_round_key64(key);
  if (r.round_keys[0].u != truth.u || r.round_keys[0].v != truth.v)
    return std::nullopt;
  return r.total_encryptions;
}

/// Scalar-knob compatibility overload.
inline std::optional<std::uint64_t> first_round_effort(
    const soc::DirectProbePlatform::Config& pcfg, const Key128& key,
    std::uint64_t budget, std::uint64_t seed,
    unsigned elimination_threshold = 1, bool statistical = false,
    bool coarse_observations = false) {
  attack::GrinchConfig acfg;
  acfg.elimination_threshold = elimination_threshold;
  acfg.statistical_elimination = statistical;
  acfg.coarse_observations = coarse_observations;
  return first_round_effort(pcfg, key, budget, seed, acfg);
}

/// One grid cell of a first-round-effort experiment.
struct CellSpec {
  soc::DirectProbePlatform::Config platform;
  /// Knob template; stages / max_encryptions / seed are overwritten.
  attack::GrinchConfig attack;
  unsigned trials = 1;
  std::uint64_t budget = 0;
  std::uint64_t seed = 0;  ///< base seed; split per trial up front
};

/// A cell's aggregated outcome plus the summed wall-clock of its trials
/// (thread-count independent, unlike elapsed time; EXPERIMENTS.md quotes
/// it as the cell's compute cost).
struct CellResult {
  EffortCell cell{0};
  double trial_seconds = 0.0;
};

/// Runs a grid of cells on the pool — trials of *all* cells share one
/// flat task list (runner::parallel_cells), so cheap cells' threads help
/// the expensive ones.  Results are deterministic for any thread count:
/// seeds are pre-derived serially and outcomes are aggregated in trial
/// order.
inline std::vector<CellResult> first_round_cells(
    runner::ThreadPool& pool, const std::vector<CellSpec>& specs) {
  std::vector<std::vector<runner::TrialSeed>> seeds(specs.size());
  std::vector<std::size_t> trials(specs.size());
  for (std::size_t c = 0; c < specs.size(); ++c) {
    seeds[c] = runner::derive_trial_seeds(specs[c].seed, specs[c].trials);
    trials[c] = specs[c].trials;
  }

  struct Outcome {
    bool success = false;
    std::uint64_t effort = 0;
    double seconds = 0.0;
  };
  std::vector<std::vector<Outcome>> outcomes(specs.size());
  for (std::size_t c = 0; c < specs.size(); ++c)
    outcomes[c].resize(trials[c]);

  runner::parallel_cells(pool, trials, [&](std::size_t c, std::size_t t) {
    const auto t0 = std::chrono::steady_clock::now();
    const CellSpec& spec = specs[c];
    const runner::TrialSeed& ts = seeds[c][t];
    const std::optional<std::uint64_t> effort =
        first_round_effort(spec.platform, ts.key, spec.budget, ts.seed,
                           spec.attack);
    Outcome& o = outcomes[c][t];
    if (effort) {
      o.success = true;
      o.effort = *effort;
    }
    o.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  });

  std::vector<CellResult> results;
  results.reserve(specs.size());
  for (std::size_t c = 0; c < specs.size(); ++c) {
    CellResult r;
    r.cell = EffortCell{specs[c].budget};
    for (const Outcome& o : outcomes[c]) {
      if (o.success) {
        r.cell.add_success(o.effort);
      } else {
        r.cell.add_dropout();
      }
      r.trial_seconds += o.seconds;
    }
    results.push_back(std::move(r));
  }
  return results;
}

/// Single-cell convenience: `trials` runs sharded across the pool.
inline CellResult first_round_cell(
    runner::ThreadPool& pool, const soc::DirectProbePlatform::Config& pcfg,
    unsigned trials, std::uint64_t budget, std::uint64_t seed,
    const attack::GrinchConfig& attack_template = {}) {
  CellSpec spec;
  spec.platform = pcfg;
  spec.attack = attack_template;
  spec.trials = trials;
  spec.budget = budget;
  spec.seed = seed;
  return first_round_cells(pool, {spec})[0];
}

/// One trial of the unified target pipeline: ground-truth verification on
/// top of target::recover_key.  `verified` is the harness's judgement —
/// the engine may report success on a key that merely matches its one
/// check encryption; the harness compares against the true key.
template <typename Recovery>
struct RecoveryTrial {
  bool verified = false;
  target::RecoveryResult<Recovery> result;
};

/// Runs `trials` independent full-key recoveries of `Recovery`'s cipher
/// sharded across the pool.  Per-trial keys/seeds are pre-derived serially
/// from `seed_base` (runner::derive_trial_seeds), so outcomes are
/// byte-identical for any --threads value.  This is the shared scaffolding
/// of the extension benches: they differ only in seed base, trial count,
/// and which columns of the result they print.
template <typename Recovery>
std::vector<RecoveryTrial<Recovery>> recovery_trials(
    runner::ThreadPool& pool, unsigned trials, std::uint64_t seed_base) {
  const runner::ShardPlan plan{seed_base, 0, trials, 1};
  return runner::map_trials<RecoveryTrial<Recovery>>(
      pool, plan,
      [&](std::size_t, const runner::TrialSeed& ts, std::uint64_t) {
        const Key128 key = Recovery::canonical_key(ts.key);
        typename target::KeyRecoveryEngine<Recovery>::Config cfg;
        cfg.seed = ts.seed;
        RecoveryTrial<Recovery> o;
        o.result = target::recover_key<Recovery>(key, cfg);
        o.verified = o.result.success && o.result.recovered_key == key;
        return o;
      });
}

/// Prints a table and flushes (bench output is consumed by tee).  Bare
/// variant for call sites without a BenchContext; prefer
/// BenchContext::print_table, which also records the table for --json.
inline void print_table(const AsciiTable& table) {
  std::fputs(table.render().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fflush(stdout);
}

}  // namespace grinch::bench
