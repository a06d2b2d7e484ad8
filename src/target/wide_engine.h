// The multi-trial key-recovery engine.
//
// WideRecoveryEngine runs *independent recovery trials* (own victim key,
// own RNG seed, own fault channel) one after another.  Per step a trial
// crafts its next plaintext, runs the monitored encryption as a one-job
// WideObserveCore run (target/wide_observe.h), and consumes the extracted
// observation through the same StageState machine the scalar engine uses
// (target/stage_state.h).  An engine is built once and reused: a
// campaign worker (src/campaign/engine.cpp) keeps one engine and hands it
// every trial it claims, one run() call each.
//
// Conformance contract: results[i] of run(specs) is bit-identical to
//
//   recover_key<Recovery>(specs[i].victim_key, cfg_i, platform_config)
//
// where cfg_i is this engine's Config with seed = specs[i].seed and
// faults.seed = specs[i].fault_seed — for every registered cipher, on
// any sequence of run() calls, with or without faults
// (tests/target/wide_conformance_test.cpp).  Each trial replicates the
// scalar engine at max_batch = 1.  On LRU caches without a prefetcher
// the scalar engine's speculative batching reproduces that
// bit-identically for any max_batch; on every other cache recover_key
// runs at max_batch = 1, so the equality holds against default configs
// everywhere.  The trial's fault channel (target/fault_channel.h) sees
// exactly the scalar decorator's delivery sequence, including the
// finalize verification observation.
//
// Every trial runs on the core's backing lane 0, reset at the trial's
// start.  Observations the core's presence shortcut cannot serve (every
// one on FIFO/PLRU/Random or prefetching caches) run on that lane's
// scalar platform, whose cache persists across the trial's observations
// as a scalar trial's does and starts cold as a fresh scalar platform's
// does, so the results stay bit-identical to scalar trials on every
// cache configuration (see wide_observe.h).
//
// Discarded probes are not simulated.  A faulted trial draws its next
// observation's faults right after crafting the plaintext
// (FaultChannel::draw(), which never reads the observation).  When the
// draw discards the probe — a burst, a drop, or a stale replay of an
// earlier delivery — the delivered observation does not depend on what
// the probe would have read, so on a supported() cache (LRU, no
// prefetcher) the encryption is not run and the trial consumes
// apply(draw, Observation{}).  That is exact: the shortcut writes no
// state, and by the recency-stack argument in wide_observe.h a skipped
// job that would have run on the lane's scalar platform cannot change a
// later verdict or cycle count there.  On other caches the lane's warm
// history is load-bearing, so every job runs.  The skipped step still
// crafts (the RNG stream and last plaintext depend on it) and still
// pays the encryption from its budget; its ciphertext completes lazily
// like a partial-round one.
//
// The wide path models the default probe only.  A platform config that
// sets a probe option (Prime+Probe, precise probing, trace capture,
// noise; target/platform.h) throws std::invalid_argument, so the
// contract above never breaks silently.
#pragma once

#include <cstdint>
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

/// One trial's parameters.
struct WideTrialSpec {
  Key128 victim_key{};
  /// Engine RNG seed (crafting + finalize draws), like Config::seed.
  std::uint64_t seed = 0;
  /// Per-trial fault stream seed; replaces Config::faults.seed for this
  /// trial (ignored on a clean channel).
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
  }

  /// Runs every trial to completion, one after another; results[i]
  /// belongs to specs[i].
  [[nodiscard]] std::vector<RecoveryResult<Recovery>> run(
      std::span<const WideTrialSpec> specs) {
    std::vector<RecoveryResult<Recovery>> results;
    results.reserve(specs.size());
    for (const WideTrialSpec& spec : specs) results.push_back(run_trial(spec));
    return results;
  }

 private:
  using Job = typename WideObserveCore<Recovery>::Job;

  /// One trial's live state.  Never moved: Crafter holds a reference to
  /// the trial's RNG.
  struct Lane {
    explicit Lane(std::uint64_t seed) : rng(seed), crafter(rng) {}

    Xoshiro256 rng;  // must precede crafter (reference member order)
    typename Recovery::Crafter crafter;
    /// Finish-mode quota/evidence state (Config::finish_partials);
    /// inert otherwise.  Shared code with the scalar engine
    /// (finisher/tracker.h) keeps the trials bit-identical to it.
    finisher::FinishTracker<Recovery> tracker;
    typename Recovery::TableCipher::Schedule schedule{};
    std::optional<FaultChannel> channel;
    StageState<Recovery> st;
    std::vector<typename Recovery::StageKey> recovered;
    RecoveryResult<Recovery> result;
    unsigned stage = 0;
    unsigned attempt_extra = 0;
    bool observed_any = false;
    bool done = false;
    Block last_pt{};  ///< engine-level last observed plaintext
    // Platform-level ciphertext bookkeeping of the core path: same
    // lazy-completion contract as DirectProbePlatform::last_ciphertext().
    Block wide_last_pt{};
    Block wide_state{};
    bool wide_ct_valid = true;  ///< Block{} before any observation
  };

  /// ObservationSource facade over one trial, handed to
  /// Recovery::finalize() for the key-verification observation.
  class LaneSource final : public ObservationSource<Block> {
   public:
    LaneSource(WideRecoveryEngine* engine, Lane* lane) noexcept
        : engine_(engine), lane_(lane) {}

    Observation observe(Block plaintext, unsigned stage) override {
      Observation obs = engine_->simulate(*lane_, plaintext, stage);
      if (lane_->channel.has_value()) lane_->channel->corrupt(obs);
      return obs;
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

  RecoveryResult<Recovery> run_trial(const WideTrialSpec& spec) {
    Lane lane{spec.seed};
    lane.schedule =
        cipher_.make_schedule(Recovery::canonical_key(spec.victim_key));
    // Drop the previous trial's scalar-lane cache, so this trial starts
    // cold exactly like a fresh scalar platform.
    core_.reset_lane_state(0);
    if (finishing_) {
      lane.tracker.begin_stage(0, 0, config_.max_encryptions);
    }
    if (faulted_) {
      FaultProfile profile = config_.faults;
      profile.seed = spec.fault_seed;
      lane.channel.emplace(profile, platform_config_.layout,
                           std::span<const unsigned>(line_ids_));
    }
    while (!lane.done) step(lane);
    return std::move(lane.result);
  }

  /// One iteration of the scalar engine's loop: its top-of-loop budget
  /// check, then craft, observe through the channel, consume.
  void step(Lane& lane) {
    if (finishing_) {
      // Quota checkpoint (the scalar engine's finish-mode top-of-loop
      // check): assume every stage whose quota is spent; assuming the
      // last stage hands the trial to the finisher.
      while (!lane.done &&
             lane.result.total_encryptions >= lane.tracker.stage_end()) {
        lane.recovered.push_back(
            lane.tracker.assume_stage(lane.st, lane.result));
        ++lane.stage;
        lane.st.begin_stage();
        if (lane.stage < Recovery::kStages) {
          lane.tracker.begin_stage(lane.stage, lane.result.total_encryptions,
                                   config_.max_encryptions);
        } else {
          finish_lane(lane);
        }
      }
      if (lane.done) return;
    } else if (config_.max_encryptions - lane.result.total_encryptions == 0) {
      lane.st.fill_partial(lane.result, lane.stage);
      lane.done = true;
      return;
    }
    const Block pt =
        lane.crafter.craft(lane.st.cursor, lane.recovered, lane.stage);
    Observation obs;
    if (!lane.channel.has_value()) {
      obs = simulate(lane, pt, lane.stage);
    } else {
      const FaultChannel::Draw draw = lane.channel->draw();
      if (skip_discarded_ && lane.channel->discards_probe(draw)) {
        lane.wide_last_pt = pt;
        lane.wide_ct_valid = false;
      } else {
        obs = simulate(lane, pt, lane.stage);
      }
      lane.channel->apply(draw, obs);
    }
    consume(lane, pt, obs);
  }

  /// The scalar engine's consume step for one delivered observation.
  void consume(Lane& lane, Block pt, const Observation& obs) {
    RecoveryResult<Recovery>& result = lane.result;
    lane.last_pt = pt;
    lane.observed_any = true;
    ++result.total_encryptions;
    ++result.stage_encryptions[lane.stage];
    if (obs.dropped) {
      // Detectable probe miss: budget spent, nothing learned.
      ++result.dropped_observations;
      return;
    }
    const auto nibbles = Recovery::pre_key_nibbles(pt, lane.recovered,
                                                   lane.stage);
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

  /// Every stage resolved: finalize, and either finish the trial or start
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

  /// Finish-mode trial completion through the trial's channel, with the
  /// scalar engine's finish step (finisher/tracker.h).
  void finish_lane(Lane& lane) {
    LaneSource source{this, &lane};
    finisher::finish_with_known_pairs<Recovery>(
        source, lane.rng, lane.recovered, config_.finish_max_candidates,
        lane.result);
    lane.done = true;
  }

  /// The trial's monitored encryption of `plaintext` at `stage`, before
  /// any channel fault: one core job on backing lane 0.
  Observation simulate(Lane& lane, Block plaintext, unsigned stage) {
    const ProbeWindow window =
        probe_window_for<Recovery>(stage, platform_config_.probing_round);
    const Job job{&lane.schedule, plaintext, window,
                  platform_config_.use_flush ? window.monitored_from : 0, 0};
    Block state{};
    core_.run(std::span<const Job>(&job, 1), batch_, &state);
    lane.wide_last_pt = plaintext;
    lane.wide_ct_valid = window.emit_rounds >= Recovery::kRounds;
    if (lane.wide_ct_valid) lane.wide_state = state;
    return batch_.extract(0);
  }

  [[nodiscard]] Block lane_last_ciphertext(Lane& lane) const {
    if (!lane.wide_ct_valid) {
      lane.wide_state = cipher_.encrypt_with_schedule(
          lane.wide_last_pt, lane.schedule, Recovery::kRounds);
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
  /// Presence shortcut where it applies, the scalar lane otherwise
  /// (wide_observe.h) — one engine loop on every cache configuration.
  WideObserveCore<Recovery> core_;
  /// The one-job output of simulate(), reused across the run.
  WideObservationBatch batch_;
};

}  // namespace grinch::target
