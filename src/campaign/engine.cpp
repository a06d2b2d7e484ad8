#include "campaign/engine.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "campaign/progress.h"
#include "campaign/record.h"
#include "common/crc32.h"
#include "runner/thread_pool.h"
#include "runner/trial_runner.h"
#include "target/registry.h"
#include "target/wide_engine.h"

namespace grinch::campaign {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// One trial's output, written by the worker that ran it.
struct TrialOutput {
  std::string record;
  Counters counters;
};

/// One shard's output.  Its trials run on any worker in any order, and
/// each writes only its own entry of `trials`.  The worker whose
/// decrement of `unrecorded` reaches zero publishes the shard; the
/// decrements form one release sequence, so the flusher, acquiring the
/// publication, sees every entry.
struct ShardSlot {
  explicit ShardSlot(unsigned width) : trials(width), unrecorded(width) {}

  std::vector<TrialOutput> trials;
  std::atomic<unsigned> unrecorded;
};

Outcome error_outcome(std::string message) {
  Outcome out;
  out.error = std::move(message);
  return out;
}

/// Streams the first `prefix` bytes of `path` through the CRC, leaving
/// the *unfinalized* running state in `state` (the flusher keeps feeding
/// it as new records append).  False on open failure or a short file.
bool crc_of_prefix(const std::string& path, std::uint64_t prefix,
                   std::uint32_t& state) {
  state = Crc32::kInit;
  FilePtr f{std::fopen(path.c_str(), "rb")};
  if (f == nullptr) return prefix == 0;
  char buf[1 << 16];
  std::uint64_t left = prefix;
  while (left > 0) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, sizeof buf));
    const std::size_t got = std::fread(buf, 1, want, f.get());
    if (got == 0) return false;
    state = Crc32::update(state, buf, got);
    left -= got;
  }
  return true;
}

template <typename Recovery>
Outcome run_campaign_t(const CampaignSpec& spec, const Options& opts) {
  const runner::ShardPlan plan{spec.seed, spec.fault_seed, spec.trials,
                               spec.wide_width};
  const std::size_t total = plan.shard_count();

  // --- resume: verify checkpoint + results prefix before any work ---
  std::size_t start_shard = 0;
  std::uint32_t crc_state = Crc32::kInit;
  std::uint64_t result_bytes = 0;
  std::uint64_t trials_flushed = 0;
  Counters counters;
  if (opts.resume) {
    if (opts.checkpoint_path.empty()) {
      return error_outcome("resume requires a checkpoint path");
    }
    std::string err;
    const std::optional<Checkpoint> ck =
        Checkpoint::load(opts.checkpoint_path, &err);
    if (!ck) return error_outcome(err);
    if (ck->spec != spec.canonical()) {
      return error_outcome(
          "checkpoint belongs to a different campaign (spec mismatch)");
    }
    if (ck->shard_total != total) {
      return error_outcome("checkpoint shard count disagrees with the spec");
    }
    std::error_code ec;
    const std::uintmax_t on_disk =
        std::filesystem::file_size(opts.results_path, ec);
    if (ec || on_disk < ck->result_bytes) {
      return error_outcome(opts.results_path +
                           ": shorter than the checkpointed prefix");
    }
    if (!crc_of_prefix(opts.results_path, ck->result_bytes, crc_state) ||
        Crc32::finalize(crc_state) != ck->result_crc) {
      return error_outcome(opts.results_path +
                           ": flushed prefix does not match the checkpoint");
    }
    // Drop any bytes past the checkpointed prefix (records a kill caught
    // mid-append); the re-run shards rewrite them identically.
    std::filesystem::resize_file(opts.results_path, ck->result_bytes, ec);
    if (ec) {
      return error_outcome("cannot truncate " + opts.results_path);
    }
    start_shard = static_cast<std::size_t>(ck->flushed_shards);
    result_bytes = ck->result_bytes;
    trials_flushed = ck->flushed_trials;
    counters = ck->counters;
  }

  FilePtr results{
      std::fopen(opts.results_path.c_str(), opts.resume ? "ab" : "wb")};
  if (results == nullptr) {
    return error_outcome("cannot open " + opts.results_path + " for writing");
  }

  if (start_shard >= total) {  // resumed a finished campaign
    Outcome out;
    out.completed = true;
    out.shards_done = total;
    out.shard_total = total;
    out.trials_done = trials_flushed;
    out.counters = counters;
    return out;
  }

  // --- shared fixed configuration (identical for every shard) ---
  typename target::DirectProbePlatform<Recovery>::Config pcfg;
  pcfg.cache.line_bytes = spec.line_words;
  pcfg.probing_round = spec.probing_round;
  typename target::KeyRecoveryEngine<Recovery>::Config ecfg;
  ecfg.max_encryptions = spec.budget;
  ecfg.vote_threshold = spec.effective_vote_threshold();
  ecfg.faults = spec.faults();
  ecfg.finish_partials = spec.finish;
  ecfg.finish_max_candidates = spec.finish_budget;

  // Shard i's output lives in slots[i] from the claim of its first trial
  // until the flusher writes it, so memory follows the work in flight.
  // published[i] is the publication point: the worker that records the
  // shard's last trial stores it with release, the flusher loads it with
  // acquire.
  std::vector<std::unique_ptr<ShardSlot>> slots(total);
  std::vector<std::atomic<bool>> published(total);

  std::atomic<bool> local_stop{false};
  std::atomic<bool> producers_done{false};
  const auto stop_requested = [&]() {
    return local_stop.load(std::memory_order_relaxed) ||
           (opts.stop != nullptr &&
            opts.stop->load(std::memory_order_relaxed));
  };

  ProgressReporter progress{opts.progress, spec.name, total};
  progress.update(start_shard, trials_flushed, counters);

  // --- flusher thread state (exclusively owned by the flusher until
  // join; the main thread reads it afterwards) ---
  std::size_t next_flush = start_shard;
  std::size_t last_checkpoint = start_shard;
  bool frozen = false;  // stop_after_flushed_shards fired
  std::string flusher_error;

  const auto save_checkpoint = [&]() {
    if (opts.checkpoint_path.empty()) return true;
    std::fflush(results.get());
    Checkpoint ck;
    ck.spec = spec.canonical();
    ck.shard_total = total;
    ck.flushed_shards = next_flush;
    ck.flushed_trials = trials_flushed;
    ck.result_bytes = result_bytes;
    ck.result_crc = Crc32::finalize(crc_state);
    ck.counters = counters;
    std::string err;
    if (!ck.save(opts.checkpoint_path, &err)) {
      flusher_error = err;
      local_stop.store(true, std::memory_order_relaxed);
      return false;
    }
    last_checkpoint = next_flush;
    return true;
  };

  // Workers nudge the flusher when a shard finishes; the timed wait is
  // only a lost-notify backstop (notify_one races the wait without a
  // lock, which is fine — staleness is bounded by the timeout).
  std::mutex flush_mu;
  std::condition_variable flush_cv;

  std::thread flusher{[&]() {
    for (;;) {
      const bool fin = producers_done.load(std::memory_order_acquire);
      while (!frozen && flusher_error.empty() && next_flush < total &&
             published[next_flush].load(std::memory_order_acquire)) {
        const ShardSlot& slot = *slots[next_flush];
        for (const TrialOutput& trial : slot.trials) {
          const std::string& bytes = trial.record;
          if (std::fwrite(bytes.data(), 1, bytes.size(), results.get()) !=
              bytes.size()) {
            flusher_error = "short write to " + opts.results_path;
            local_stop.store(true, std::memory_order_relaxed);
            break;
          }
          crc_state = Crc32::update(crc_state, bytes.data(), bytes.size());
          result_bytes += bytes.size();
          counters += trial.counters;
        }
        if (!flusher_error.empty()) break;
        trials_flushed += slot.trials.size();
        slots[next_flush].reset();
        ++next_flush;
        progress.update(next_flush, trials_flushed, counters);
        if (opts.checkpoint_path.empty() ? false
                : next_flush - last_checkpoint >=
                      std::max<std::size_t>(opts.checkpoint_every_shards,
                                            1)) {
          if (!save_checkpoint()) break;
        }
        if (opts.stop_after_flushed_shards != 0 &&
            next_flush >= opts.stop_after_flushed_shards) {
          // Deterministic kill point: checkpoint exactly here, stop the
          // campaign, and flush nothing further.
          save_checkpoint();
          local_stop.store(true, std::memory_order_relaxed);
          frozen = true;
          break;
        }
      }
      if (next_flush == total || frozen || !flusher_error.empty() || fin) {
        break;
      }
      std::unique_lock<std::mutex> lk{flush_mu};
      flush_cv.wait_for(lk, std::chrono::milliseconds(5), [&]() {
        return producers_done.load(std::memory_order_acquire) ||
               (next_flush < total &&
                published[next_flush].load(std::memory_order_acquire));
      });
    }
    if (!frozen && flusher_error.empty()) save_checkpoint();
  }};

  // The claim cursor: the next unstarted trial, in trial order.  Every
  // shard but the last holds `width` trials, and a shard's slot is
  // allocated when its first trial is claimed.
  const unsigned width = plan.shard(0).width;
  std::mutex claim_mu;
  std::size_t next_trial = plan.shard(start_shard).begin;
  const auto claim = [&](std::size_t& trial) {
    const std::lock_guard<std::mutex> lk{claim_mu};
    if (next_trial == plan.trials()) return false;
    trial = next_trial++;
    if (trial % width == 0) {
      slots[trial / width] =
          std::make_unique<ShardSlot>(plan.shard(trial / width).width);
    }
    return true;
  };

  // One task per pool participant: each pulls trials onto its own engine
  // until none is left, checking for a stop before every claim.
  runner::ThreadPool pool{opts.threads};
  const std::size_t tasks = std::min<std::size_t>(
      pool.thread_count(), plan.trials() - next_trial);
  pool.parallel_for(tasks, [&](std::size_t) {
    target::WideRecoveryEngine<Recovery> engine{ecfg, pcfg};
    std::size_t t = 0;
    while (!stop_requested() && claim(t)) {
      const runner::TrialSeed& seed = plan.seeds()[t];
      const target::WideTrialSpec trial{Recovery::canonical_key(seed.key),
                                        seed.seed, plan.fault_seeds()[t]};
      const target::RecoveryResult<Recovery> result =
          std::move(engine.run(std::span(&trial, 1)).front());
      ShardSlot& slot = *slots[t / width];
      TrialOutput& out = slot.trials[t % width];
      out.record = trial_record<Recovery>(spec, t, trial.victim_key,
                                          trial.seed, trial.fault_seed,
                                          result);
      count_trial<Recovery>(out.counters, trial.victim_key, result);
      if (slot.unrecorded.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        published[t / width].store(true, std::memory_order_release);
        flush_cv.notify_one();
      }
    }
  });
  producers_done.store(true, std::memory_order_release);
  flush_cv.notify_one();
  flusher.join();

  Outcome out;
  out.shard_total = total;
  out.shards_done = next_flush;
  out.trials_done = trials_flushed;
  out.counters = counters;
  out.error = flusher_error;
  if (out.ok()) {
    out.completed = next_flush == total;
    out.interrupted = !out.completed;
  }
  progress.finish(next_flush, trials_flushed, counters, out.interrupted);
  return out;
}

}  // namespace

Outcome run_campaign(const CampaignSpec& spec, const Options& options) {
  std::string err;
  if (!spec.validate(&err)) return error_outcome(err);
  if (options.results_path.empty()) {
    return error_outcome("a results path is required");
  }
  if (spec.cipher == "gift128") {
    return run_campaign_t<target::Gift128Recovery>(spec, options);
  }
  if (spec.cipher == "present80") {
    return run_campaign_t<target::Present80Recovery>(spec, options);
  }
  return run_campaign_t<target::Gift64Recovery>(spec, options);
}

}  // namespace grinch::campaign
