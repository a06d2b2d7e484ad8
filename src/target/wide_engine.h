// The multi-trial wide key-recovery engine.
//
// WideRecoveryEngine runs up to 64 *independent recovery trials* (own
// victim key, own RNG seed, own fault channel) in lockstep: per outer
// step every unfinished lane crafts its next plaintext, all lanes'
// monitored encryptions execute as ONE WideObserveCore run
// (target/wide_observe.h), and each lane consumes its extracted
// observation through the same StageState machine the scalar engine uses
// (target/stage_state.h).  That amortises the per-observation dispatch
// across the whole fleet — the multi-trial throughput benches
// (BM_WideRecovery) scale near-linearly with width.
//
// Conformance contract: lane i's RecoveryResult is bit-identical to
//
//   recover_key<Recovery>(specs[i].victim_key, cfg_i, platform_config)
//
// where cfg_i is this engine's Config with seed = specs[i].seed and
// faults.seed = specs[i].fault_seed — for every registered cipher, any
// width, with or without faults (tests/target/wide_conformance_test.cpp).
// Each lane replicates the scalar engine at max_batch = 1.  On LRU
// caches without a prefetcher the scalar engine's speculative batching
// reproduces that bit-identically for any max_batch; on every other
// cache recover_key runs at max_batch = 1, so the equality holds against
// default configs everywhere.
// Per-lane fault channels (target/fault_channel.h) see exactly the
// scalar decorator's delivery sequence, including the finalize
// verification observation.
//
// Every trial keeps a stable backing-lane slot in the core for its
// lifetime, reset at trial start.  Observations the core's presence
// shortcut cannot serve (every one on FIFO/PLRU/Random or prefetching
// caches) run on that slot's scalar platform, whose cache persists
// across group steps as a scalar trial's does, so the results stay
// bit-identical to scalar trials on every cache configuration (see
// wide_observe.h).
//
// Discarded probes are not simulated.  A faulted lane draws its next
// observation's faults right after crafting the plaintext
// (FaultChannel::draw(), which never reads the observation).  When the
// draw discards the probe — a burst, a drop, or a stale replay of an
// earlier delivery — the delivered observation does not depend on what
// the probe would have read, so on a supported() cache (LRU, no
// prefetcher) the lane's encryption stays out of the core run and the
// lane consumes apply(draw, Observation{}).  That is exact: the
// shortcut writes no state, and by the recency-stack argument in
// wide_observe.h a skipped job that would have run on the lane's scalar
// platform cannot change a later verdict or cycle count there.  On
// other caches the lane's warm history is load-bearing, so every job
// runs.  The skipped lane still crafts (its RNG stream and last
// plaintext depend on it) and still pays the encryption from its
// budget; its ciphertext completes lazily like a partial-round one.
//
// The wide path models the default probe only.  A platform config that
// sets a probe option (Prime+Probe, precise probing, trace capture,
// noise; target/platform.h) throws std::invalid_argument, so the
// contract above never breaks silently.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/key128.h"
#include "common/rng.h"
#include "finisher/tracker.h"
#include "target/fault_channel.h"
#include "target/fault_model.h"
#include "target/observation.h"
#include "target/platform.h"
#include "target/recovery_engine.h"
#include "target/stage_state.h"
#include "target/wide_observe.h"

namespace grinch::target {

/// One lane's trial parameters.
struct WideTrialSpec {
  Key128 victim_key{};
  /// Engine RNG seed (crafting + finalize draws), like Config::seed.
  std::uint64_t seed = 0;
  /// Per-lane fault stream seed; replaces Config::faults.seed for this
  /// lane (ignored on a clean channel).
  std::uint64_t fault_seed = 0;
};

template <typename Recovery>
class WideRecoveryEngine {
 public:
  using Block = typename Recovery::Block;
  using Config = typename KeyRecoveryEngine<Recovery>::Config;
  using PlatformConfig = typename DirectProbePlatform<Recovery>::Config;

  WideRecoveryEngine(const Config& config,
                     const PlatformConfig& platform_config = {})
      : config_(config),
        platform_config_(platform_config),
        cipher_(platform_config.layout),
        line_ids_(compute_index_line_ids(platform_config.layout,
                                         platform_config.cache.line_bytes)),
        params_{config.vote_threshold},
        faulted_(config.faults.any()),
        finishing_(config.finish_partials),
        skip_discarded_(
            WideObserveCore<Recovery>::supported(platform_config.cache)),
        core_(platform_config.cache, platform_config.layout) {
    if (platform_config.has_probe_options()) {
      throw std::invalid_argument(
          "WideRecoveryEngine: probe options (Prime+Probe, precise probe, "
          "trace capture, noise) run on the scalar DirectProbePlatform only");
    }
    states_.resize(WideObservationBatch::kMaxWidth);
  }

  /// Runs every trial to completion; results[i] belongs to specs[i].
  /// Trials are processed in lockstep groups of up to 64 lanes.
  [[nodiscard]] std::vector<RecoveryResult<Recovery>> run(
      std::span<const WideTrialSpec> specs) {
    std::vector<RecoveryResult<Recovery>> results;
    results.reserve(specs.size());
    for (std::size_t base = 0; base < specs.size();
         base += WideObservationBatch::kMaxWidth) {
      const std::size_t n = std::min<std::size_t>(
          WideObservationBatch::kMaxWidth, specs.size() - base);
      run_group(specs.subspan(base, n), results);
    }
    return results;
  }

 private:
  using Job = typename WideObserveCore<Recovery>::Job;

  /// One trial's live state.  Heap-pinned (unique_ptr) because Crafter
  /// holds a reference to the lane's RNG.
  struct Lane {
    explicit Lane(std::uint64_t seed) : rng(seed), crafter(rng) {}

    Xoshiro256 rng;  // must precede crafter (reference member order)
    typename Recovery::Crafter crafter;
    /// Finish-mode quota/evidence state (Config::finish_partials);
    /// inert otherwise.  Shared code with the scalar engine
    /// (finisher/tracker.h) keeps the lanes bit-identical to it.
    finisher::FinishTracker<Recovery> tracker;
    typename Recovery::TableCipher::Schedule schedule{};
    /// Stable backing-lane slot in the core for this trial's lifetime
    /// (keys the persistent per-lane scalar cache state).
    unsigned slot = 0;
    std::optional<FaultChannel> channel;
    /// This step's fault draw (faulted lanes), made before the probe.
    FaultChannel::Draw draw;
    /// This step's probe is discarded and its encryption not simulated.
    bool skipped = false;
    StageState<Recovery> st;
    std::vector<typename Recovery::StageKey> recovered;
    RecoveryResult<Recovery> result;
    unsigned stage = 0;
    unsigned attempt_extra = 0;
    bool observed_any = false;
    bool done = false;
    Block last_pt{};     ///< engine-level last observed plaintext
    Block pending_pt{};  ///< this step's crafted plaintext
    // Platform-level ciphertext bookkeeping of the core path: same
    // lazy-completion contract as DirectProbePlatform::last_ciphertext().
    Block wide_last_pt{};
    Block wide_state{};
    bool wide_ct_valid = true;  ///< Block{} before any observation
  };

  /// ObservationSource facade over one lane, handed to
  /// Recovery::finalize() for the key-verification observation.
  class LaneSource final : public ObservationSource<Block> {
   public:
    LaneSource(WideRecoveryEngine* engine, Lane* lane) noexcept
        : engine_(engine), lane_(lane) {}

    Observation observe(Block plaintext, unsigned stage) override {
      return engine_->observe_lane(*lane_, plaintext, stage);
    }
    [[nodiscard]] const TableLayout& layout() const override {
      return engine_->platform_config_.layout;
    }
    [[nodiscard]] std::vector<unsigned> index_line_ids() const override {
      return engine_->line_ids_;
    }
    [[nodiscard]] Block last_ciphertext() const override {
      return engine_->lane_last_ciphertext(*lane_);
    }

   private:
    WideRecoveryEngine* engine_;
    Lane* lane_;
  };

  void run_group(std::span<const WideTrialSpec> specs,
                 std::vector<RecoveryResult<Recovery>>& results) {
    std::vector<std::unique_ptr<Lane>> lanes;
    lanes.reserve(specs.size());
    for (const WideTrialSpec& spec : specs) {
      auto lane = std::make_unique<Lane>(spec.seed);
      const Key128 key = Recovery::canonical_key(spec.victim_key);
      lane->schedule = cipher_.make_schedule(key);
      // Each trial owns one backing-lane slot for its whole lifetime;
      // reset drops any previous trial's persistent scalar-lane cache, so
      // the trial starts cold exactly like a fresh scalar platform.
      lane->slot = static_cast<unsigned>(lanes.size());
      core_.reset_lane_state(lane->slot);
      if (finishing_) {
        lane->tracker.begin_stage(0, 0, config_.max_encryptions);
      }
      if (faulted_) {
        FaultProfile profile = config_.faults;
        profile.seed = spec.fault_seed;
        lane->channel.emplace(profile, platform_config_.layout,
                              std::span<const unsigned>(line_ids_));
      }
      lanes.push_back(std::move(lane));
    }

    std::vector<Lane*> active;
    active.reserve(lanes.size());
    for (;;) {
      // Gather: one crafted plaintext per unfinished lane (the scalar
      // engine's top-of-loop budget check happens here).
      jobs_.clear();
      active.clear();
      for (auto& owned : lanes) {
        Lane& lane = *owned;
        if (lane.done) continue;
        if (finishing_) {
          // Quota checkpoint (the scalar engine's finish-mode
          // top-of-loop check): assume every stage whose quota is
          // spent; assuming the last stage hands the lane to the
          // finisher.
          while (!lane.done && lane.result.total_encryptions >=
                                   lane.tracker.stage_end()) {
            lane.recovered.push_back(
                lane.tracker.assume_stage(lane.st, lane.result));
            ++lane.stage;
            lane.st.begin_stage();
            if (lane.stage < Recovery::kStages) {
              lane.tracker.begin_stage(lane.stage,
                                       lane.result.total_encryptions,
                                       config_.max_encryptions);
            } else {
              finish_lane(lane);
            }
          }
          if (lane.done) continue;
        } else if (config_.max_encryptions - lane.result.total_encryptions ==
                   0) {
          lane.st.fill_partial(lane.result, lane.stage);
          lane.done = true;
          continue;
        }
        lane.pending_pt =
            lane.crafter.craft(lane.st.cursor, lane.recovered, lane.stage);
        active.push_back(&lane);
        if (lane.channel.has_value()) {
          lane.draw = lane.channel->draw();
          lane.skipped =
              skip_discarded_ && lane.channel->discards_probe(lane.draw);
          if (lane.skipped) continue;
        }
        const ProbeWindow window = probe_window_for<Recovery>(
            lane.stage, platform_config_.probing_round);
        jobs_.push_back({&lane.schedule, lane.pending_pt, window,
                         platform_config_.use_flush ? window.monitored_from
                                                    : 0,
                         lane.slot});
      }
      if (active.empty()) break;

      // Observe: every simulated lane's encryption in one core run (jobs
      // the shortcut cannot serve advance their lane's scalar cache).
      core_.run(std::span<const Job>(jobs_), wide_batch_, states_.data());

      // Scatter: per lane, deliver through its own channel, consume,
      // advance.  Simulated lanes take their core results in job order.
      unsigned job = 0;
      for (Lane* const active_lane : active) {
        Lane& lane = *active_lane;
        Observation obs;
        lane.wide_last_pt = lane.pending_pt;
        if (lane.skipped) {
          lane.wide_ct_valid = false;
        } else {
          obs = wide_batch_.extract(job);
          lane.wide_ct_valid =
              jobs_[job].window.emit_rounds >= Recovery::kRounds;
          if (lane.wide_ct_valid) lane.wide_state = states_[job];
          ++job;
        }
        if (lane.channel.has_value()) lane.channel->apply(lane.draw, obs);
        consume(lane, obs);
      }
    }

    for (auto& owned : lanes) results.push_back(std::move(owned->result));
  }

  /// The scalar engine's consume step for one delivered observation.
  void consume(Lane& lane, const Observation& obs) {
    RecoveryResult<Recovery>& result = lane.result;
    lane.last_pt = lane.pending_pt;
    lane.observed_any = true;
    ++result.total_encryptions;
    ++result.stage_encryptions[lane.stage];
    if (obs.dropped) {
      // Detectable probe miss: budget spent, nothing learned.
      ++result.dropped_observations;
      return;
    }
    const auto nibbles =
        Recovery::pre_key_nibbles(lane.pending_pt, lane.recovered, lane.stage);
    if (finishing_) lane.tracker.note_observation(nibbles, obs.present);
    if constexpr (Recovery::kUpdateAllSegments) {
      for (unsigned s = 0; s < Recovery::kSegments; ++s) {
        lane.st.update(s, obs.present, nibbles, params_, lane.attempt_extra,
                       result);
      }
    } else {
      lane.st.update(lane.st.cursor, obs.present, nibbles, params_,
                     lane.attempt_extra, result);
    }
    if (lane.st.unresolved > 0) return;
    lane.recovered.push_back(Recovery::stage_key_from(lane.st.masks));
    ++lane.stage;
    lane.st.begin_stage();
    if (lane.stage < Recovery::kStages) {
      if (finishing_) {
        lane.tracker.begin_stage(lane.stage, lane.result.total_encryptions,
                                 config_.max_encryptions);
      }
      return;
    }
    finish_attempt(lane);
  }

  /// Every stage resolved: finalize, and either finish the lane or start
  /// the next full-attack attempt (scalar verify-restart semantics).
  void finish_attempt(Lane& lane) {
    if (finishing_ && lane.tracker.any_assumed()) {
      // An earlier stage was ML-assumed: the channel cannot verify this
      // attempt; the residual search does.
      finish_lane(lane);
      return;
    }
    RecoveryResult<Recovery>& result = lane.result;
    result.stages_resolved = true;
    result.stage_keys = lane.recovered;
    LaneSource source{this, &lane};
    const std::uint64_t last_ct =
        lane.observed_any
            ? Recovery::fold_ciphertext(source.last_ciphertext())
            : 0;
    Recovery::finalize(result, source, lane.rng, lane.last_pt, last_ct);
    if (result.success || !faulted_ ||
        result.total_encryptions >= config_.max_encryptions) {
      lane.done = true;
      return;
    }
    // Wrong key locked in by the channel: restart the whole recovery with
    // budget left, periodically hardening elimination.
    ++result.verify_restarts;
    if (result.verify_restarts % kBackoffResets == 0 &&
        params_.base_threshold + lane.attempt_extra < params_.threshold_cap) {
      ++lane.attempt_extra;
    }
    lane.recovered.clear();
    result.stage_keys.clear();
    result.stages_resolved = false;
    result.key_verified = false;
    lane.stage = 0;
    lane.st.begin_stage();
    if (finishing_) {
      lane.tracker.begin_stage(0, result.total_encryptions,
                               config_.max_encryptions);
    }
  }

  /// Finish-mode lane completion through the lane's channel, with the
  /// scalar engine's finish step (finisher/tracker.h).
  void finish_lane(Lane& lane) {
    LaneSource source{this, &lane};
    finisher::finish_with_known_pairs<Recovery>(
        source, lane.rng, lane.recovered, config_.finish_max_candidates,
        lane.result);
    lane.done = true;
  }

  /// Single-lane observation for finalize (and any out-of-band caller):
  /// a width-1 core run on the lane's stable backing slot.
  Observation observe_lane(Lane& lane, Block plaintext, unsigned stage) {
    const ProbeWindow window =
        probe_window_for<Recovery>(stage, platform_config_.probing_round);
    const Job job{&lane.schedule, plaintext, window,
                  platform_config_.use_flush ? window.monitored_from : 0,
                  lane.slot};
    Block state{};
    core_.run(std::span<const Job>(&job, 1), scratch_wide_, &state);
    Observation obs = scratch_wide_.extract(0);
    lane.wide_last_pt = plaintext;
    lane.wide_ct_valid = window.emit_rounds >= Recovery::kRounds;
    if (lane.wide_ct_valid) lane.wide_state = state;
    if (lane.channel.has_value()) lane.channel->corrupt(obs);
    return obs;
  }

  [[nodiscard]] Block lane_last_ciphertext(Lane& lane) const {
    if (!lane.wide_ct_valid) {
      lane.wide_state = cipher_.encrypt_with_schedule(
          lane.wide_last_pt, lane.schedule, Recovery::kRounds,
          static_cast<gift::NullSink*>(nullptr));
      lane.wide_ct_valid = true;
    }
    return lane.wide_state;
  }

  Config config_;
  PlatformConfig platform_config_;
  typename Recovery::TableCipher cipher_;
  std::vector<unsigned> line_ids_;
  ElimParams params_;
  bool faulted_;
  bool finishing_;
  /// Discarded probes may go unsimulated: the cache is supported() (LRU
  /// without a prefetcher), where lane history changes no verdict.
  bool skip_discarded_;
  /// Presence shortcut where it applies, per-lane scalar lanes otherwise
  /// (wide_observe.h) — one engine loop on every cache configuration.
  WideObserveCore<Recovery> core_;
  /// Group-step buffers, reused across the run.
  std::vector<Job> jobs_;
  WideObservationBatch wide_batch_;
  WideObservationBatch scratch_wide_;
  std::vector<Block> states_;
};

}  // namespace grinch::target
