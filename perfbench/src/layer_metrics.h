// The metric names, in one place: every workload reports the same
// end-to-end set (untraced run) and the same per-layer set (traced run),
// as BENCHMARK.json lists them.  A layer a workload never runs reports 0.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct EndToEnd {
  double keys_per_s = 0.0;
  double attack_ms_p50 = 0.0;
  /// The highest percentile with at least ten samples beyond it: p99 of
  /// the single attack's >=1000 attacks, p90 of a campaign's >=100 calls.
  double attack_ms_tail = 0.0;
  double encryptions_per_key = 0.0;
  double offline_trials_per_key = 0.0;
  double verified_share = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

inline void add_end_to_end(Result& res, const EndToEnd& e) {
  res.add("keys_per_s", e.keys_per_s, "1/s");
  res.add("attack_ms_p50", e.attack_ms_p50, "ms");
  res.add("attack_ms_tail", e.attack_ms_tail, "ms");
  res.add("encryptions_per_key", e.encryptions_per_key, "count");
  res.printed_only.push_back(
      {"offline_trials_per_key", e.offline_trials_per_key, "count"});
  res.add("verified_share", e.verified_share, "ratio");
  res.add("setup_s", e.setup_s, "s");
  res.add("peak_rss_mb", e.peak_rss_mb, "MB");
}

/// What the traced run measured besides its spans.
struct LayerInputs {
  /// Deterministic counts of the traced pass (equal to the untraced run's).
  Counts counts;
  unsigned workers = 1;
  /// Walls of the same work interleaved: without spans, with spans, and
  /// (campaigns only; 0 otherwise) dispatched bare instead of through
  /// run_campaign.
  double untraced_wall = 0.0;
  double traced_wall = 0.0;
  double direct_wall = 0.0;
  std::uint64_t record_bytes = 0;
  /// Engine spans: WideRecoveryEngine::run, or recover_key.
  double engine_s = 0.0;
  /// Encryptions and finalize calls the replays covered.
  std::uint64_t replayed_encs = 0;
  std::uint64_t finalized = 0;
  /// The replayed trials (the first grid, or the first attacks): their
  /// counts, their engine spans and their finisher replays.  The time
  /// outside craft, observe, finalize and finisher is computed on these
  /// same trials, so per-key cost differences between the subset and the
  /// whole run cannot leak into it.
  Counts replayed;
  double replayed_engine_s = 0.0;
  double replayed_finisher_s = 0.0;
  /// The workload's engine observes through WideObserveCore (campaigns)
  /// rather than DirectProbePlatform (the single attack).
  bool observe_wide_primary = true;
  ReferenceNs ref;
};

inline void add_per_layer(Result& res, const Tracer& tracer,
                          const LayerInputs& in) {
  const Counts& c = in.counts;
  const double trials = double(c.trials);
  const double encs = double(c.encryptions);
  const auto max_ms = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()) * 1e3;
  };

  const std::vector<double> shards = tracer.seconds_of("runner.shard");
  res.add("runner.busy_share",
          ratio(tracer.total_seconds("runner.shard"),
                in.workers * in.traced_wall),
          "ratio");
  res.add("runner.shard_ms_p50", median(shards) * 1e3, "ms");
  res.add("runner.shard_ms_max", max_ms(shards), "ms");

  const std::vector<double> checkpoints =
      tracer.seconds_of("campaign.checkpoint");
  res.add("campaign.overhead_share",
          in.direct_wall > 0.0
              ? ratio(in.untraced_wall - in.direct_wall, in.untraced_wall)
              : 0.0,
          "ratio");
  res.add("campaign.record_us_per_trial",
          ratio(tracer.total_seconds("campaign.record"), trials) * 1e6, "us");
  res.add("campaign.bytes_per_trial", ratio(double(in.record_bytes), trials),
          "count");
  res.add("campaign.checkpoints", double(checkpoints.size()), "count");
  res.add("campaign.checkpoint_ms_p50", median(checkpoints) * 1e3, "ms");

  const double replayed = double(in.replayed_encs);
  const double craft_s = ratio(tracer.total_seconds("target.craft"), replayed);
  const double wide_s =
      ratio(tracer.total_seconds("target.observe_wide"), replayed);
  const double scalar_s =
      ratio(tracer.total_seconds("target.observe_scalar"), replayed);
  const double observe_s = in.observe_wide_primary ? wide_s : scalar_s;
  const double finalize_s =
      ratio(tracer.total_seconds("target.finalize"), double(in.finalized));
  const double finisher_s = tracer.total_seconds("finisher.run");
  // Finalize runs once per key verified through the channel and once per
  // verify restart; finisher-verified keys skip it.
  const Counts& r = in.replayed;
  const double finalize_calls =
      double(r.verified - r.finisher_recovered + r.verify_restarts);
  const double other_s =
      in.replayed_engine_s - double(r.encryptions) * (craft_s + observe_s) -
      finalize_calls * finalize_s - in.replayed_finisher_s;
  res.add("target.engine_us_per_trial", ratio(in.engine_s, trials) * 1e6,
          "us");
  res.add("target.craft_ns_per_enc", craft_s * 1e9, "ns");
  res.add("target.observe_wide_ns_per_enc", wide_s * 1e9, "ns");
  res.add("target.observe_scalar_ns_per_enc", scalar_s * 1e9, "ns");
  res.add("target.observe_share", ratio(encs * observe_s, in.engine_s),
          "ratio");
  res.add("target.finalize_ms_per_key", finalize_s * 1e3, "ms");
  res.add("target.other_us_per_trial",
          ratio(other_s, double(r.trials)) * 1e6, "us");
  res.add("target.dropped_share", ratio(double(c.dropped), encs), "ratio");
  res.add("target.noise_restarts_per_trial",
          ratio(double(c.noise_restarts), trials), "count");
  res.add("target.verify_restarts_per_trial",
          ratio(double(c.verify_restarts), trials), "count");
  res.add("target.partial_share", ratio(double(c.partial), trials), "ratio");
  res.add("target.offline_trials_per_key",
          ratio(double(c.offline_trials), double(c.verified)), "count");

  const std::vector<double> runs = tracer.seconds_of("finisher.run");
  res.add("finisher.runs", double(c.finisher_runs), "count");
  res.add("finisher.recovered_share",
          ratio(double(c.finisher_recovered), double(c.finisher_runs)),
          "ratio");
  res.add("finisher.candidates_per_run",
          ratio(double(c.finisher_candidates), double(c.finisher_runs)),
          "count");
  res.add("finisher.ms_per_run",
          ratio(finisher_s, double(runs.size())) * 1e3, "ms");
  res.add("finisher.ms_max", max_ms(runs), "ms");

  res.add("gift.ref64_ns", in.ref.gift64, "ns");
  res.add("gift.ref128_ns", in.ref.gift128, "ns");
  res.add("present.ref_ns", in.ref.present80, "ns");

  res.add("trace.overhead_share",
          ratio(in.traced_wall - in.untraced_wall, in.untraced_wall),
          "ratio");
  res.notes.push_back(
      "tracing overhead: traced wall " + std::to_string(in.traced_wall) +
      " s - untraced wall " + std::to_string(in.untraced_wall) + " s = " +
      std::to_string(in.traced_wall - in.untraced_wall) +
      " s (the same work, interleaved)");
}

/// Writes the traced run's spans next to the run's other outputs.
inline void write_trace(Result& res, const Tracer& tracer,
                        const RunOptions& opt) {
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".trace.json";
  res.check(!tracer.lost(), "spans were lost; per-layer metrics incomplete");
  res.check(tracer.write_chrome_trace(path, opt.context_json),
            "cannot write " + path);
  res.notes.push_back("trace: " + path);
}

}  // namespace perfbench
