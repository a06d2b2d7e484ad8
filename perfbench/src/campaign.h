// The campaign workloads: verified keys per second of run_campaign.
//
// Untraced run: set-up (repeated, median reported), then back-to-back
// run_campaign calls, each submitting a fresh grid of `trials_per_call`
// trials at once to a pool of `workers` threads, until the timed wall
// reaches --seconds and at least kMinCalls ran, so that the p90 of the
// call latencies has ten samples beyond it.  After each call (outside
// the timed wall) every record of its results file is checked against
// the victim keys the benchmark derived for that grid, and the record
// sums against the campaign's own counters.
//
// Traced run (--trace 1): the untraced run, then every grid again three
// ways, back to back in a rotating order:
//   * through run_campaign (untraced);
//   * dispatched directly through ShardPlan + WideRecoveryEngine::run
//     (untraced; its verified count must equal the campaign's, and the
//     two walls give campaign.overhead_share);
//   * through a mirror of run_campaign built from the public pieces it
//     uses (ShardPlan, ThreadPool, WideRecoveryEngine::run,
//     trial_record/count_trial, Checkpoint::save) with a span around
//     each; its counts and record bytes must equal the untraced run's,
//     and its wall against run_campaign's gives the tracing overhead;
// then, on that grid's trials, the layer replays of layers.h.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cachesim/kernels/kernels.h"
#include "campaign/checkpoint.h"
#include "campaign/engine.h"
#include "campaign/record.h"
#include "campaign/spec.h"
#include "common/crc32.h"
#include "common/json.h"
#include "layer_metrics.h"
#include "layers.h"
#include "runner/thread_pool.h"
#include "runner/trial_runner.h"
#include "target/registry.h"
#include "target/wide_engine.h"

namespace perfbench {

struct CampaignWorkload {
  const char* name;
  const char* cipher;
  const char* fault_profile;
  unsigned wide_width;
  std::uint64_t budget;
  unsigned vote_threshold;  ///< 0 = the spec's default for the profile
  bool finish;
  std::uint64_t finish_budget;
  std::uint64_t trials_per_call;
};

namespace detail {

inline grinch::campaign::CampaignSpec make_spec(const CampaignWorkload& w,
                                                std::uint64_t trials,
                                                std::uint64_t seed,
                                                std::uint64_t fault_seed) {
  grinch::campaign::CampaignSpec spec;
  spec.name = w.name;
  spec.cipher = w.cipher;
  spec.trials = trials;
  spec.seed = seed;
  spec.fault_seed = fault_seed;
  spec.wide_width = w.wide_width;
  spec.budget = w.budget;
  spec.fault_profile = w.fault_profile;
  spec.vote_threshold = w.vote_threshold;
  spec.finish = w.finish;
  spec.finish_budget = w.finish_budget;
  return spec;
}

/// What one grid produced, as bytes on disk plus deterministic counts.
struct CallOutput {
  Counts counts;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  bool operator==(const CallOutput&) const = default;
};

/// A run makes at least this many run_campaign calls, so that ten of
/// them lie beyond the p90 (the tail latency campaigns report).
inline constexpr std::size_t kMinCalls = 100;

/// Trials that end without the key are listed up to this many notes.
inline constexpr std::size_t kMaxFailureNotes = 16;

// Record field readers; a missing field reads as 0 / "" / false, which
// the checks below then report as a mismatch.
inline std::uint64_t field_u64(const grinch::json::Value& rec,
                               const char* key) {
  const grinch::json::Value* v = rec.get(key);
  return v == nullptr ? 0 : v->as_u64();
}

inline std::string field_str(const grinch::json::Value& rec,
                             const char* key) {
  const grinch::json::Value* v = rec.get(key);
  return v == nullptr ? std::string{} : v->as_string();
}

/// Checks every record of a campaign results file against the victim
/// keys derived from the spec, and tallies them.
template <typename Recovery>
CallOutput check_results_file(const std::string& path,
                              const grinch::campaign::CampaignSpec& spec,
                              Result& res) {
  // Read line by line: a copy of the whole file would add the
  // benchmark's own buffers to the workload's peak_rss_mb.
  std::ifstream in{path, std::ios::binary};
  CallOutput out;
  std::uint32_t crc = grinch::Crc32::kInit;
  const std::vector<grinch::runner::TrialSeed> seeds =
      grinch::runner::derive_trial_seeds(spec.seed, spec.trials);
  std::string line;
  std::uint64_t t = 0;
  Counts& c = out.counts;
  while (std::getline(in, line)) {
    crc = grinch::Crc32::update(crc, line.data(), line.size());
    out.bytes += line.size();
    if (!in.eof()) {  // getline consumed a newline
      crc = grinch::Crc32::update(crc, "\n", 1);
      ++out.bytes;
    }
    std::string err;
    const std::optional<grinch::json::Value> rec =
        grinch::json::parse(line, &err);
    if (!rec || t >= seeds.size() || field_u64(*rec, "trial") != t) {
      res.check(false, path + ": unreadable or out-of-order record " +
                           std::to_string(t) + " " + err);
      return out;
    }
    const grinch::Key128 victim = Recovery::canonical_key(seeds[t].key);
    grinch::Key128 claimed{};
    const grinch::json::Value* success_field = rec->get("success");
    const bool success = success_field != nullptr && success_field->as_bool();
    res.check(field_str(*rec, "victim_key") == victim.to_hex(),
              "record " + std::to_string(t) + " names another victim key");
    if (success &&
        (!grinch::Key128::from_hex(field_str(*rec, "recovered_key"),
                                   claimed) ||
         claimed != victim)) {
      ++c.wrong_keys;
    }
    ++c.trials;
    if (success && claimed == victim) {
      ++c.verified;
    } else if (res.notes.size() < kMaxFailureNotes) {
      const std::string finisher = field_str(*rec, "finisher_outcome");
      res.notes.push_back(
          "trial without the key: seed " +
          std::to_string(field_u64(*rec, "seed")) +
          ", encryptions " +
          std::to_string(field_u64(*rec, "total_encryptions")) +
          ", finisher " + (finisher.empty() ? "not run" : finisher) +
          " after " + std::to_string(field_u64(*rec, "finisher_candidates")) +
          " candidates");
    }
    c.encryptions += field_u64(*rec, "total_encryptions");
    c.offline_trials += field_u64(*rec, "offline_trials");
    c.dropped += field_u64(*rec, "dropped_observations");
    c.noise_restarts += field_u64(*rec, "noise_restarts");
    c.verify_restarts += field_u64(*rec, "verify_restarts");
    if (rec->get("failed_stage") != nullptr) ++c.partial;
    if (rec->get("finisher_outcome") != nullptr) {
      ++c.finisher_runs;
      c.finisher_candidates += field_u64(*rec, "finisher_candidates");
      if (field_str(*rec, "finisher_outcome") == "recovered") {
        ++c.finisher_recovered;
      }
    }
    ++t;
  }
  out.crc = grinch::Crc32::finalize(crc);
  res.check(t == spec.trials, path + ": " + std::to_string(t) + " of " +
                                  std::to_string(spec.trials) + " records");
  res.check(c.wrong_keys == 0, path + ": " + std::to_string(c.wrong_keys) +
                                   " recovered keys differ from the victim's");
  return out;
}

template <typename Recovery>
struct EngineConfigs {
  typename grinch::target::KeyRecoveryEngine<Recovery>::Config engine;
  typename grinch::target::DirectProbePlatform<Recovery>::Config platform;
};

/// The engine and platform configuration run_campaign derives from a spec.
template <typename Recovery>
EngineConfigs<Recovery> engine_configs(
    const grinch::campaign::CampaignSpec& spec) {
  EngineConfigs<Recovery> c;
  c.platform.cache.line_bytes = spec.line_words;
  c.platform.probing_round = spec.probing_round;
  c.engine.max_encryptions = spec.budget;
  c.engine.vote_threshold = spec.effective_vote_threshold();
  c.engine.faults = spec.faults();
  c.engine.finish_partials = spec.finish;
  c.engine.finish_max_candidates = spec.finish_budget;
  return c;
}

/// Runs one grid shard by shard on a fresh pool, like run_campaign.
/// Without a tracer: the bare dispatch (ShardPlan + WideRecoveryEngine::
/// run).  With one: the traced mirror, which also builds every record,
/// writes them in shard order to `mirror_path` with a checkpoint every 8
/// shards and at the end, and fills `written` (bytes + CRC).
template <typename Recovery>
std::vector<Trial<Recovery>> dispatch(
    const grinch::campaign::CampaignSpec& spec, unsigned workers,
    Tracer* tracer, std::int64_t call, const std::string& mirror_path,
    CallOutput* written, Errors& errors) {
  namespace cp = grinch::campaign;
  std::optional<ScopedSpan> call_span;
  if (tracer != nullptr) {
    call_span.emplace(*tracer, "campaign.call", 0, "call", call);
  }
  const std::uint64_t parent = call_span ? call_span->id() : 0;
  const auto span = [&](std::optional<ScopedSpan>& s, const char* name,
                        std::uint64_t under, std::int64_t arg) {
    if (tracer != nullptr) s.emplace(*tracer, name, under, "shard", arg);
  };

  std::optional<ScopedSpan> plan_span;
  span(plan_span, "campaign.plan", parent, -1);
  const EngineConfigs<Recovery> cfg = engine_configs<Recovery>(spec);
  const grinch::runner::ShardPlan plan{spec.seed, spec.fault_seed,
                                       spec.trials, spec.wide_width};
  plan_span.reset();

  std::optional<ScopedSpan> pool_span;
  span(pool_span, "runner.pool_start", parent, -1);
  grinch::runner::ThreadPool pool{workers};
  pool_span.reset();

  std::vector<Trial<Recovery>> trials(plan.trials());
  std::vector<std::string> bytes(plan.shard_count());
  std::vector<cp::Counters> counters(plan.shard_count());
  pool.parallel_for(plan.shard_count(), [&](std::size_t i) {
    std::optional<ScopedSpan> shard_span;
    span(shard_span, "runner.shard", parent, static_cast<std::int64_t>(i));
    const std::uint64_t shard_id = shard_span ? shard_span->id() : 0;
    const grinch::runner::WideShard& shard = plan.shard(i);
    const auto seeds = plan.seeds(shard);
    const auto fault_seeds = plan.fault_seeds(shard);
    std::vector<grinch::target::WideTrialSpec> specs(shard.width);
    for (unsigned j = 0; j < shard.width; ++j) {
      specs[j] = {Recovery::canonical_key(seeds[j].key), seeds[j].seed,
                  fault_seeds[j]};
    }
    std::vector<grinch::target::RecoveryResult<Recovery>> results;
    {
      std::optional<ScopedSpan> s;
      span(s, "target.engine_construct", shard_id,
           static_cast<std::int64_t>(i));
      grinch::target::WideRecoveryEngine<Recovery> engine{cfg.engine,
                                                          cfg.platform};
      s.reset();
      span(s, "target.engine_run", shard_id, static_cast<std::int64_t>(i));
      results = engine.run(specs);
    }
    errors.check(results.size() == shard.width,
                 "engine returned a result count other than the shard's");
    if (tracer != nullptr) {
      std::optional<ScopedSpan> s;
      span(s, "campaign.record", shard_id, static_cast<std::int64_t>(i));
      for (unsigned j = 0; j < shard.width; ++j) {
        bytes[i] += cp::trial_record<Recovery>(
            spec, shard.begin + j, specs[j].victim_key, seeds[j].seed,
            fault_seeds[j], results[j]);
        cp::count_trial<Recovery>(counters[i], specs[j].victim_key,
                                  results[j]);
      }
    }
    for (unsigned j = 0; j < shard.width && j < results.size(); ++j) {
      trials[shard.begin + j] = {specs[j].victim_key, seeds[j].seed,
                                 std::move(results[j])};
    }
  });
  if (tracer == nullptr) return trials;

  // In-order flush with periodic checkpoints, as run_campaign's flusher.
  std::optional<ScopedSpan> flush_span;
  span(flush_span, "campaign.flush", parent, -1);
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
      if (f != nullptr) std::fclose(f);
    }
  };
  const std::unique_ptr<std::FILE, FileCloser> file{
      std::fopen(mirror_path.c_str(), "wb")};
  errors.check(file != nullptr, "cannot open " + mirror_path);
  if (file == nullptr) return trials;
  cp::Checkpoint ck;
  ck.spec = spec.canonical();
  ck.kernel = grinch::cachesim::kernels::active().name;
  ck.shard_total = plan.shard_count();
  std::uint32_t crc = grinch::Crc32::kInit;
  std::size_t last_checkpoint = 0;
  const auto save = [&](std::size_t flushed) {
    std::fflush(file.get());
    ck.flushed_shards = flushed;
    ck.result_crc = grinch::Crc32::finalize(crc);
    std::optional<ScopedSpan> s;
    span(s, "campaign.checkpoint", flush_span->id(),
         static_cast<std::int64_t>(flushed));
    std::string err;
    errors.check(ck.save(mirror_path + ".ckpt", &err), err);
    last_checkpoint = flushed;
  };
  for (std::size_t i = 0; i < plan.shard_count(); ++i) {
    const std::string& b = bytes[i];
    errors.check(std::fwrite(b.data(), 1, b.size(), file.get()) == b.size(),
                 "short write to " + mirror_path);
    crc = grinch::Crc32::update(crc, b.data(), b.size());
    ck.result_bytes += b.size();
    ck.flushed_trials += plan.shard(i).width;
    ck.counters += counters[i];
    if (i + 1 - last_checkpoint >= 8) save(i + 1);
  }
  save(plan.shard_count());
  written->bytes = ck.result_bytes;
  written->crc = ck.result_crc;
  for (const Trial<Recovery>& t : trials) count(written->counts, t);
  return trials;
}

}  // namespace detail

template <typename Recovery>
Result run_campaign_workload(const CampaignWorkload& w,
                             const RunOptions& opt) {
  namespace cp = grinch::campaign;
  using detail::CallOutput;
  Result res;
  Errors errors{res};
  cp::Options copts;
  copts.results_path = opt.out_dir + "/" + w.name + ".jsonl";
  copts.checkpoint_path = copts.results_path + ".ckpt";
  copts.threads = opt.workers;

  // Set-up: spec validation, ShardPlan expansion, pool start, engine and
  // platform construction and the lazy first-use work (kernel dispatch,
  // first-touch pages), all inside one warm-up campaign of one shard per
  // worker.  Repeated; the median is reported.
  std::vector<double> setup;
  for (unsigned k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    const cp::CampaignSpec spec =
        detail::make_spec(w, std::uint64_t{w.wide_width} * opt.workers,
                          kWarmupSeed, kWarmupSeed);
    std::string err;
    res.check(spec.validate(&err), std::string{w.name} + " spec: " + err);
    const cp::Outcome out = cp::run_campaign(spec, copts);
    setup.push_back(seconds_since(t0));
    res.check(out.ok() && out.completed, "warm-up campaign: " + out.error);
  }
  res.notes.push_back(ms_list("set-up repetitions", setup));

  // Timed: back-to-back campaigns over fresh grids until --seconds and
  // kMinCalls.
  grinch::Xoshiro256 stream{opt.seed};
  std::vector<cp::CampaignSpec> specs;
  std::vector<double> walls;
  std::vector<CallOutput> outputs;
  Counts total;
  double timed = 0.0;
  while (timed < opt.seconds || walls.size() < detail::kMinCalls) {
    const std::uint64_t seed = stream.next();
    const std::uint64_t fault_seed = stream.next();
    const cp::CampaignSpec spec =
        detail::make_spec(w, w.trials_per_call, seed, fault_seed);
    const auto t0 = Clock::now();
    const cp::Outcome out = cp::run_campaign(spec, copts);
    const double wall = seconds_since(t0);
    timed += wall;
    walls.push_back(wall);
    res.check(out.ok() && out.completed, "campaign: " + out.error);
    const CallOutput call = detail::check_results_file<Recovery>(
        copts.results_path, spec, res);
    const Counts& c = call.counts;
    res.check(out.counters.verified == c.verified &&
                  out.counters.total_encryptions == c.encryptions &&
                  out.counters.partial == c.partial &&
                  out.counters.finished == c.finisher_recovered &&
                  out.counters.dropped_observations == c.dropped &&
                  out.counters.noise_restarts == c.noise_restarts &&
                  out.counters.verify_restarts == c.verify_restarts,
              "campaign counters disagree with its results file");
    total += c;
    specs.push_back(spec);
    outputs.push_back(call);
  }
  res.attempted = total.trials;
  res.failed = total.wrong_keys;
  res.unverified = total.trials - total.verified;
  res.check(total.verified > 0, "no verified keys");
  res.notes.push_back("campaign calls: " + std::to_string(walls.size()) +
                      " x " + std::to_string(w.trials_per_call) +
                      " trials (latency samples; tail = p90)");

  if (!opt.trace) {
    add_end_to_end(res, EndToEnd{ratio(double(total.verified), timed),
                                 median(walls) * 1e3,
                                 percentile(walls, 90.0) * 1e3,
                                 ratio(double(total.encryptions),
                                       double(total.verified)),
                                 ratio(double(total.offline_trials),
                                       double(total.verified)),
                                 ratio(double(total.verified),
                                       double(total.trials)),
                                 median(setup), peak_rss_mb()});
    return res;
  }

  // Each grid again, three ways back to back, in an order that rotates
  // from grid to grid so that host drift cannot show up as overhead:
  // through run_campaign and dispatched bare (both untraced), and
  // through the traced mirror.  Right after them, the layer replays of
  // layers.h run on that grid's trials, so that the engine time they are
  // set against was measured moments before them: the finisher on every
  // run, the engine layers on the leading grids until they have taken a
  // third of --seconds.
  Tracer tracer;
  grinch::runner::ThreadPool pool{opt.workers};
  const auto pcfg = detail::engine_configs<Recovery>(specs[0]).platform;
  LayerInputs in;
  Counts traced;
  std::uint64_t direct_verified = 0;
  double replay_s = 0.0;
  const std::string mirror = opt.out_dir + "/" + w.name + ".mirror.jsonl";
  for (std::size_t c = 0; c < specs.size(); ++c) {
    const double engine_before = tracer.total_seconds("target.engine_run");
    const double finisher_before = tracer.total_seconds("finisher.run");
    std::vector<Trial<Recovery>> trials;
    for (unsigned leg = 0; leg < 3; ++leg) {
      const auto t0 = Clock::now();
      switch ((leg + c) % 3) {
        case 0: {
          const cp::Outcome out = cp::run_campaign(specs[c], copts);
          in.untraced_wall += seconds_since(t0);
          res.check(out.ok() && out.completed &&
                        out.counters.verified == outputs[c].counts.verified,
                    "campaign re-run of grid " + std::to_string(c) +
                        " differs from its first run");
          break;
        }
        case 1: {
          const std::vector<Trial<Recovery>> bare =
              detail::dispatch<Recovery>(specs[c], opt.workers, nullptr, -1,
                                         "", nullptr, errors);
          in.direct_wall += seconds_since(t0);
          for (const Trial<Recovery>& t : bare) {
            direct_verified += t.verified();
          }
          break;
        }
        default: {
          CallOutput written;
          trials = detail::dispatch<Recovery>(
              specs[c], opt.workers, &tracer, static_cast<std::int64_t>(c),
              mirror, &written, errors);
          res.check(written == outputs[c],
                    "traced call " + std::to_string(c) +
                        " differs from the untraced campaign (counts or "
                        "bytes)");
          traced += written.counts;
          in.record_bytes += written.bytes;
        }
      }
    }
    std::vector<Trial<Recovery>> runs;
    for (const Trial<Recovery>& t : trials) {
      if (t.result.finisher.outcome !=
          grinch::finisher::FinisherOutcome::kNotRun) {
        runs.push_back(t);
      }
    }
    replay_finisher<Recovery>(runs, w.finish_budget, pool, tracer, errors);
    if (c > 0 && replay_s >= opt.seconds / 3.0) continue;
    const auto t0 = Clock::now();
    const auto [encs, finals] = replay_engine_layers<Recovery>(
        trials, w.wide_width, pcfg, pool, tracer, errors);
    replay_s += seconds_since(t0);
    in.replayed_encs += encs;
    in.finalized += finals;
    for (const Trial<Recovery>& t : trials) count(in.replayed, t);
    in.replayed_engine_s +=
        tracer.total_seconds("target.engine_run") - engine_before;
    in.replayed_finisher_s +=
        tracer.total_seconds("finisher.run") - finisher_before;
  }
  res.check(direct_verified == total.verified,
            "direct dispatch verified " + std::to_string(direct_verified) +
                " keys, the campaign " + std::to_string(total.verified));
  res.notes.push_back("engine layers replayed on " +
                      std::to_string(in.replayed.trials) + " trials");

  in.counts = traced;
  in.workers = opt.workers;
  in.traced_wall = tracer.total_seconds("campaign.call");
  in.engine_s = tracer.total_seconds("target.engine_run");
  in.observe_wide_primary = true;
  in.ref = time_reference_ciphers(opt.seed, tracer, errors);
  add_per_layer(res, tracer, in);
  write_trace(res, tracer, opt);
  return res;
}

}  // namespace perfbench
