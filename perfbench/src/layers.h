// Per-layer timing of the traced run.
//
// The engines call crafting, observation, finalize and the finisher
// internally, where the benchmark cannot put a span.  So the traced run
// replays each workload's own inputs through the module's public entry
// point and times that call:
//   * Crafter::craft + pre_key_nibbles, with each trial's RNG seed and
//     recovered stage keys, once per encryption the trial spent;
//   * WideObserveCore::run at the workload's width and
//     DirectProbePlatform::observe, on the replayed plaintexts;
//   * Recovery::finalize on every verified trial;
//   * finisher::finish_with_residual_search on every finisher run's
//     captured evidence and known pairs (serial verification);
//   * the reference encrypts.
// The replays also check what they can: finalize must recover the
// victim's key again, and the finisher must repeat its outcome exactly.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/key128.h"
#include "common/rng.h"
#include "finisher/tracker.h"
#include "gift/gift128.h"
#include "gift/gift64.h"
#include "present/present.h"
#include "report.h"
#include "runner/thread_pool.h"
#include "spans.h"
#include "target/platform.h"
#include "target/recovery_engine.h"
#include "target/wide_observe.h"

namespace perfbench {

/// One trial's inputs and outcome.
template <typename Recovery>
struct Trial {
  grinch::Key128 victim{};
  /// Engine seed (crafting and finalize draws).
  std::uint64_t seed = 0;
  grinch::target::RecoveryResult<Recovery> result;

  [[nodiscard]] bool verified() const {
    return result.success && result.recovered_key == victim;
  }
};

/// Deterministic counts of a set of trials; equal between the untraced
/// and the traced run of the same seed.
struct Counts {
  std::uint64_t trials = 0;
  std::uint64_t verified = 0;
  /// Trials that reported success with a key other than the victim's.
  std::uint64_t wrong_keys = 0;
  std::uint64_t encryptions = 0;
  std::uint64_t offline_trials = 0;
  std::uint64_t dropped = 0;
  std::uint64_t noise_restarts = 0;
  std::uint64_t verify_restarts = 0;
  std::uint64_t partial = 0;
  std::uint64_t finisher_runs = 0;
  std::uint64_t finisher_recovered = 0;
  std::uint64_t finisher_candidates = 0;

  bool operator==(const Counts&) const = default;
  Counts& operator+=(const Counts& o);
};

inline Counts& Counts::operator+=(const Counts& o) {
  trials += o.trials;
  verified += o.verified;
  wrong_keys += o.wrong_keys;
  encryptions += o.encryptions;
  offline_trials += o.offline_trials;
  dropped += o.dropped;
  noise_restarts += o.noise_restarts;
  verify_restarts += o.verify_restarts;
  partial += o.partial;
  finisher_runs += o.finisher_runs;
  finisher_recovered += o.finisher_recovered;
  finisher_candidates += o.finisher_candidates;
  return *this;
}

template <typename Recovery>
void count(Counts& c, const Trial<Recovery>& t) {
  const auto& r = t.result;
  ++c.trials;
  if (t.verified()) ++c.verified;
  if (r.success && r.recovered_key != t.victim) ++c.wrong_keys;
  c.encryptions += r.total_encryptions;
  c.offline_trials += r.offline_trials;
  c.dropped += r.dropped_observations;
  c.noise_restarts += r.noise_restarts;
  c.verify_restarts += r.verify_restarts;
  if (r.failed_stage < Recovery::kStages) ++c.partial;
  if (r.finisher.outcome != grinch::finisher::FinisherOutcome::kNotRun) {
    ++c.finisher_runs;
    c.finisher_candidates += r.finisher.candidates_tested;
    if (r.finisher.outcome == grinch::finisher::FinisherOutcome::kRecovered) {
      ++c.finisher_recovered;
    }
  }
}

/// Thread-safe error sink for checks made inside pool tasks.
class Errors {
 public:
  explicit Errors(Result& res) : res_(res) {}
  void check(bool ok, const std::string& what) {
    if (ok) return;
    const std::lock_guard<std::mutex> lock{mu_};
    res_.errors.push_back(what);
  }

 private:
  std::mutex mu_;  // guards res_.errors
  Result& res_;
};

/// Replays crafting, both observation paths and finalize for `trials`,
/// `width` trials per task (the lockstep group of the wide path).  Returns
/// the number of encryptions replayed and the number of finalize calls.
template <typename Recovery>
std::pair<std::uint64_t, std::uint64_t> replay_engine_layers(
    std::span<const Trial<Recovery>> trials, unsigned width,
    const typename grinch::target::DirectProbePlatform<Recovery>::Config&
        pcfg,
    grinch::runner::ThreadPool& pool, Tracer& tracer, Errors& errors) {
  using Block = typename Recovery::Block;
  using Core = grinch::target::WideObserveCore<Recovery>;
  struct Step {
    Block pt{};
    unsigned stage = 0;
  };
  const std::size_t groups = (trials.size() + width - 1) / width;
  std::vector<std::uint64_t> encs(groups, 0);
  std::vector<std::uint64_t> finals(groups, 0);
  const ScopedSpan root{tracer, "replay.engine_layers"};
  pool.parallel_for(groups, [&](std::size_t g) {
    const std::span<const Trial<Recovery>> group = trials.subspan(
        g * width, std::min<std::size_t>(width, trials.size() - g * width));
    const ScopedSpan task{tracer, "replay.group", root.id(), "group",
                          static_cast<std::int64_t>(g)};
    std::uint64_t sink = 0;

    // Crafting: the trial's own RNG stream, the stage keys it recovered,
    // one craft per encryption it spent in each stage.
    std::vector<std::vector<Step>> steps(group.size());
    for (std::size_t l = 0; l < group.size(); ++l) {
      const auto& r = group[l].result;
      grinch::Xoshiro256 rng{group[l].seed};
      typename Recovery::Crafter crafter{rng};
      std::vector<typename Recovery::StageKey> known;
      std::vector<Step>& out = steps[l];
      out.reserve(r.total_encryptions);
      const ScopedSpan span{tracer, "target.craft", task.id(), "trial",
                            static_cast<std::int64_t>(g * width + l)};
      for (unsigned s = 0; s < Recovery::kStages; ++s) {
        for (std::uint64_t j = 0; j < r.stage_encryptions[s]; ++j) {
          const Block pt = crafter.craft(
              static_cast<unsigned>(j % Recovery::kSegments), known, s);
          sink += Recovery::pre_key_nibbles(pt, known, s)[0];
          out.push_back({pt, s});
        }
        if (s < r.stage_keys.size()) known.push_back(r.stage_keys[s]);
      }
      encs[g] += out.size();
    }

    // Wide observation: lane l of each step is trial l's next plaintext.
    {
      typename Recovery::TableCipher cipher{pcfg.layout};
      std::vector<typename Core::Schedule> schedules;
      for (const Trial<Recovery>& t : group) {
        schedules.push_back(cipher.make_schedule(t.victim));
      }
      Core core{pcfg.cache, pcfg.layout};
      grinch::target::WideObservationBatch batch;
      std::vector<typename Core::Job> jobs;
      std::vector<Block> states(group.size());
      std::size_t longest = 0;
      for (const auto& s : steps) longest = std::max(longest, s.size());
      const ScopedSpan span{tracer, "target.observe_wide", task.id(),
                            "group", static_cast<std::int64_t>(g)};
      for (std::size_t i = 0; i < longest; ++i) {
        jobs.clear();
        for (std::size_t l = 0; l < group.size(); ++l) {
          if (i >= steps[l].size()) continue;
          const Step& st = steps[l][i];
          const grinch::target::ProbeWindow window =
              grinch::target::probe_window_for<Recovery>(st.stage,
                                                         pcfg.probing_round);
          jobs.push_back({&schedules[l], st.pt, window,
                          pcfg.use_flush ? window.monitored_from : 0u,
                          static_cast<unsigned>(l)});
        }
        core.run(std::span<const typename Core::Job>(jobs), batch,
                 states.data());
        sink += batch.width();
      }
    }

    // Scalar observation and finalize, one platform per trial.
    for (std::size_t l = 0; l < group.size(); ++l) {
      const Trial<Recovery>& t = group[l];
      grinch::target::DirectProbePlatform<Recovery> platform{pcfg, t.victim};
      {
        const ScopedSpan span{tracer, "target.observe_scalar", task.id(),
                              "trial",
                              static_cast<std::int64_t>(g * width + l)};
        for (const Step& st : steps[l]) {
          sink += platform.observe(st.pt, st.stage).attacker_cycles;
        }
      }
      if (!t.verified() || steps[l].empty()) continue;
      grinch::target::RecoveryResult<Recovery> redo;
      redo.stage_keys = t.result.stage_keys;
      grinch::Xoshiro256 rng{t.seed ^ 0xF17A1u};
      const Block last_pt = steps[l].back().pt;
      const std::uint64_t last_ct = Recovery::fold_ciphertext(
          Recovery::reference_encrypt(last_pt, t.victim));
      {
        const ScopedSpan span{tracer, "target.finalize", task.id(), "trial",
                              static_cast<std::int64_t>(g * width + l)};
        Recovery::finalize(redo, platform, rng, last_pt, last_ct);
      }
      ++finals[g];
      errors.check(redo.success && redo.recovered_key == t.victim,
                   "finalize replay did not recover the victim key of a "
                   "verified trial");
    }
    errors.check(sink != 0, "replay produced no work");
  });
  std::uint64_t total_encs = 0;
  std::uint64_t total_finals = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    total_encs += encs[g];
    total_finals += finals[g];
  }
  return {total_encs, total_finals};
}

/// Replays the residual finisher on every finisher run in `runs` (serial
/// verification, one run per pool task) and checks that each repeats its
/// outcome, rank, candidate count and key.
template <typename Recovery>
void replay_finisher(std::span<const Trial<Recovery>> runs,
                     std::uint64_t finish_budget,
                     grinch::runner::ThreadPool& pool, Tracer& tracer,
                     Errors& errors) {
  const ScopedSpan root{tracer, "replay.finisher"};
  pool.parallel_for(runs.size(), [&](std::size_t i) {
    const auto& done = runs[i].result;
    // The finish-mode partial as the engine handed it to the finisher.
    grinch::target::RecoveryResult<Recovery> partial = done;
    partial.offline_trials -= done.finisher.offline_trials;
    partial.finisher = {};
    partial.success = false;
    partial.key_verified = false;
    partial.recovered_key = {};
    grinch::finisher::Options options;
    options.max_candidates = finish_budget;
    {
      const ScopedSpan span{tracer, "finisher.run", root.id(), "trial",
                            static_cast<std::int64_t>(i)};
      grinch::finisher::finish_with_residual_search(partial, options);
    }
    errors.check(
        partial.finisher.outcome == done.finisher.outcome &&
            partial.finisher.candidates_tested ==
                done.finisher.candidates_tested &&
            partial.finisher.rank == done.finisher.rank &&
            partial.success == done.success &&
            partial.recovered_key == done.recovered_key &&
            partial.offline_trials == done.offline_trials,
        "finisher replay did not repeat the campaign's outcome");
  });
}

/// Times the three reference ciphers, `reps` spans of `n` encryptions
/// each, on blocks and keys drawn from `seed`; returns the median ns per
/// encryption for {GIFT-64, GIFT-128, PRESENT-80}.
struct ReferenceNs {
  double gift64 = 0.0;
  double gift128 = 0.0;
  double present80 = 0.0;
};

inline ReferenceNs time_reference_ciphers(std::uint64_t seed, Tracer& tracer,
                                          Errors& errors) {
  constexpr unsigned kReps = 5;
  constexpr unsigned kN = 1u << 14;
  grinch::Xoshiro256 rng{seed};
  std::vector<std::uint64_t> words(2 * kN);
  for (auto& w : words) w = rng.next();
  const grinch::Key128 key{rng.next(), rng.next()};
  const grinch::Key128 key80{key.hi & 0xFFFF, key.lo};
  std::uint64_t sink = 0;
  const auto measure = [&](const char* name, auto&& encrypt_one) {
    std::vector<double> ns;
    for (unsigned rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      {
        const ScopedSpan span{tracer, name, 0, "rep", rep};
        for (unsigned i = 0; i < kN; ++i) sink += encrypt_one(i);
      }
      ns.push_back(seconds_since(t0) * 1e9 / kN);
    }
    return median(ns);
  };
  ReferenceNs out;
  out.gift64 = measure("gift.ref64", [&](unsigned i) {
    return grinch::gift::Gift64::encrypt(words[i], key);
  });
  out.gift128 = measure("gift.ref128", [&](unsigned i) {
    const grinch::gift::State128 pt{words[2 * i], words[2 * i + 1]};
    const grinch::gift::State128 ct = grinch::gift::Gift128::encrypt(pt, key);
    return ct.hi ^ ct.lo;
  });
  out.present80 = measure("present.ref", [&](unsigned i) {
    return grinch::present::Present80::encrypt(words[i], key80);
  });
  errors.check(sink != 0, "reference ciphers produced no output");
  return out;
}

}  // namespace perfbench
