// The single generic direct-probe observation platform.
//
// One template serves every registered cipher: the victim encrypts with
// its instrumented table cipher, the access stream is replayed against
// the simulated cache around the attacker's prepare / probe points, and
// the prober reports line presence.
//
// `Traits` describes the cipher-specific facts (see docs/TARGETS.md):
//   using Block / TableCipher;
//   static constexpr unsigned kSegments;
//   static constexpr unsigned kAccessesPerRound;
//   static constexpr unsigned kRounds;
//   static constexpr unsigned kFirstKeyDependentRound;  // GIFT 1, PRESENT 0
//   static std::uint64_t fold_ciphertext(Block);
//
// Probing-round semantics: attack stage `s` monitors cipher round
// s + kFirstKeyDependentRound (GIFT mixes the key *after* the S-Box
// layer, so its round 0 is key-free and stage s monitors round s+1;
// PRESENT mixes it *before*, so stage 0 monitors round 0 directly).
// "Probing round k" means the probe observes the cache after k rounds of
// that monitored window have executed.
//
// Probe options (Config, docs/TARGETS.md): GRINCH's Step 2 probe is
// Flush+Reload or Prime+Probe (§III-C), the probe may land inside the
// monitored round (§III-D precision probing), a trace channel may report
// the monitored round's per-access hits, and third-party traffic may
// share the cache (§IV-B1).  All four default off.  The wide path
// (target/wide_observe.h) models the defaults only, and the wide engine
// refuses a config that sets an option.
//
// Hot path (the partial-round fast path, docs/TARGETS.md): the probe only
// consumes accesses up to probed_after_round, so the victim encryption is
// truncated there — observe() emits min(monitored_from + probing_round,
// kRounds) rounds from a schedule precomputed at construction, and the
// full ciphertext is derived lazily in last_ciphertext(), i.e. only for
// the final verification encryptions.  The truncated trace is the exact
// prefix of the full one (asserted per cipher by
// tests/target/partial_round_test.cpp), so every observation bit, cycle
// count and cache transition is identical to simulating all rounds.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cachesim/cache.h"
#include "common/key128.h"
#include "common/rng.h"
#include "gift/table_gift.h"
#include "target/fault_model.h"
#include "target/observation.h"
#include "target/prober.h"

namespace grinch::target {

/// Stage -> probe-window math, shared by the scalar and wide paths.
/// "Probing round k" for attack stage `s`: the monitored window opens at
/// cipher round s + kFirstKeyDependentRound and the probe lands after k
/// of its rounds executed (observation.h header comment).
struct ProbeWindow {
  unsigned monitored_from = 0;  ///< first round of the monitored window
  unsigned probe_after = 0;     ///< rounds executed when the probe lands
  unsigned emit_rounds = 0;     ///< rounds the victim actually simulates
};

template <typename Traits>
[[nodiscard]] constexpr ProbeWindow probe_window_for(
    unsigned stage, unsigned probing_round) noexcept {
  ProbeWindow w;
  w.monitored_from = stage + Traits::kFirstKeyDependentRound;
  w.probe_after = w.monitored_from + probing_round;
  // The probe never consumes accesses past probe_after, so the victim
  // stops encrypting there (probing-round sweeps may ask for more rounds
  // than the cipher has; probe_after itself stays unclamped in the
  // reported observation).
  w.emit_rounds = std::min(w.probe_after, Traits::kRounds);
  return w;
}

template <typename Traits>
class DirectProbePlatform final
    : public ObservationSource<typename Traits::Block> {
 public:
  using Block = typename Traits::Block;
  using Schedule = typename Traits::TableCipher::Schedule;

  struct Config {
    cachesim::CacheConfig cache = cachesim::CacheConfig::paper_default();
    TableLayout layout;
    unsigned probing_round = 1;  ///< k in the semantics above (>= 1)
    bool use_flush = true;
    /// Probe options (header comment).  Flush+Reload or Prime+Probe.
    ProbeMethod method = ProbeMethod::kFlushReload;
    /// §III-D precision probing: probe right after the focused segment's
    /// S-Box access inside the monitored round (focus_segment()) instead
    /// of at a round boundary.  Overrides probing_round.
    bool precise_probe = false;
    /// Trace-driven channel: also report the monitored round's per-access
    /// hit/miss sequence in Observation::sbox_hits (the power side
    /// channel of the paper's ref [10]).  Needs use_flush; a precise
    /// probe never completes the round, so it reports no trace.
    bool capture_trace = false;
    /// Third-party traffic: this many accesses drawn from
    /// NoiseAddressSpace after every replayed victim round.  Noise can
    /// evict monitored lines but never fake a presence: it is the
    /// cache-level mechanism behind the channel-level false-absent fault
    /// (fault_model.h).  For the other fault modes wrap the platform in
    /// a FaultyObservationSource.
    unsigned noise_accesses_per_round = 0;

    /// True when any probe option departs from its default.
    [[nodiscard]] bool has_probe_options() const noexcept {
      return method != ProbeMethod::kFlushReload || precise_probe ||
             capture_trace || noise_accesses_per_round != 0;
    }
  };

  DirectProbePlatform(const Config& config, const Key128& victim_key)
      : DirectProbePlatform(config, Schedule{}) {
    schedule_ = cipher_.make_schedule(victim_key);
  }

  /// A victim whose round keys are `schedule` rather than the cipher's
  /// key schedule of a key: the hardened-UpdateKey countermeasure hands
  /// over cm::hardened_round_keys(key, 28) this way.
  DirectProbePlatform(const Config& config, Schedule schedule)
      : config_(config),
        cache_(config.cache),
        cipher_(config.layout),
        prober_(make_prober(config.method, cache_, config.layout)),
        schedule_(std::move(schedule)),
        line_ids_(
            compute_index_line_ids(config.layout, config.cache.line_bytes)) {}

  // The prober holds the address of cache_.
  DirectProbePlatform(const DirectProbePlatform&) = delete;
  DirectProbePlatform& operator=(const DirectProbePlatform&) = delete;

  Observation observe(Block plaintext, unsigned stage) override {
    return observe_at(plaintext, window_for(stage));
  }

  void observe_batch(std::span<const Block> plaintexts, unsigned stage,
                     ObservationBatch& out) override {
    // The probe window depends only on the stage: derive it once for the
    // whole batch; each element then runs the same scalar pipeline (warm
    // sink, warm prober schedule), so results are bit-identical to
    // per-element observe() calls.
    const ProbeWindow window = window_for(stage);
    out.resize(plaintexts.size());
    for (std::size_t i = 0; i < plaintexts.size(); ++i) {
      out[i] = observe_at(plaintexts[i], window);
    }
  }

  void focus_segment(unsigned segment) override {
    focus_ = segment % Traits::kSegments;
  }

  [[nodiscard]] const TableLayout& layout() const override {
    return config_.layout;
  }
  [[nodiscard]] std::vector<unsigned> index_line_ids() const override {
    return line_ids_;  // computed once at construction
  }
  [[nodiscard]] Block last_ciphertext() const override {
    if (!last_ct_valid_) {
      // Complete the truncated encryption functionally (no sink, no cache
      // traffic — the simulated cache state is untouched).
      last_ct_ =
          cipher_.encrypt_with_schedule(last_pt_, schedule_, Traits::kRounds);
      last_ct_valid_ = true;
    }
    return last_ct_;
  }

  /// The scalar direct-probe pipeline behind observe(): one monitored
  /// encryption of `plaintext` under `schedule`, the attacker's prepare
  /// (flush or prime) before round `flush_round`, the probe where
  /// `window` says.  observe() passes the platform's own schedule and
  /// flushes before the window with use_flush, before round 0 without;
  /// WideObserveCore's scalar lanes pass each job's (wide_observe.h), so
  /// both paths share this one pipeline.  Returns the victim state after
  /// window.emit_rounds rounds.
  Block observe_window(const Schedule& schedule, Block plaintext,
                       const ProbeWindow& window, unsigned flush_round,
                       Observation& out) {
    // Collect the (truncated) access stream once, then replay it against
    // the cache.  The sink is reused across calls, so it stops allocating
    // after the first encryption.
    sink_.clear();
    const Block state = cipher_.encrypt_with_schedule(
        plaintext, schedule, window.emit_rounds, &sink_);

    replay_rounds(0, flush_round, window, out);
    const std::uint64_t prepare_cycles = prober_->prepare();
    replay_rounds(flush_round, window.probe_after, window, out);
    if (config_.precise_probe) {
      // Pause the victim right after the focused segment's S-Box access:
      // every table cipher issues its S-Box lookups first in a round, in
      // segment order, so that is the round's first focus + 1 accesses.
      // No noise follows the partial round.
      const std::size_t begin =
          static_cast<std::size_t>(window.probe_after) *
          Traits::kAccessesPerRound;
      const std::size_t end =
          std::min(begin + focus_ + 1, sink_.accesses().size());
      for (std::size_t i = begin; i < end; ++i) {
        cache_.touch(sink_.accesses()[i].addr);
      }
    }

    const ProbeResult probe = prober_->probe();
    out.present = probe.row_present;
    out.probed_after_round = window.probe_after;
    out.attacker_cycles = prepare_cycles + probe.cycles;
    return state;
  }

 private:
  [[nodiscard]] ProbeWindow window_for(unsigned stage) const noexcept {
    if (!config_.precise_probe) {
      return probe_window_for<Traits>(stage, config_.probing_round);
    }
    // The precise probe lands inside the monitored round itself, so the
    // victim emits that round and the observation reports it unfinished.
    ProbeWindow w = probe_window_for<Traits>(stage, 1);
    w.probe_after = w.monitored_from;
    return w;
  }

  Observation observe_at(Block plaintext, const ProbeWindow& window) {
    Observation o;
    const Block state =
        observe_window(schedule_, plaintext, window,
                       config_.use_flush ? window.monitored_from : 0, o);
    last_pt_ = plaintext;
    // A full-depth run already is the ciphertext; shorter ones complete
    // lazily in last_ciphertext().
    last_ct_valid_ = window.emit_rounds >= Traits::kRounds;
    if (last_ct_valid_) last_ct_ = state;
    return o;
  }

  /// Replays the emitted victim rounds among [from, to) against the
  /// cache, each followed by the configured noise traffic.  With the
  /// trace channel on, the monitored round's S-Box accesses also record
  /// whether they hit.
  void replay_rounds(unsigned from, unsigned to, const ProbeWindow& window,
                     Observation& out) {
    constexpr unsigned per_round = Traits::kAccessesPerRound;
    const std::vector<gift::TableAccess>& accesses = sink_.accesses();
    to = std::min(to, static_cast<unsigned>(accesses.size() / per_round));
    for (unsigned r = from; r < to; ++r) {
      const gift::TableAccess* round = &accesses[std::size_t{r} * per_round];
      if (config_.capture_trace && config_.use_flush &&
          r == window.monitored_from) {
        out.sbox_hits.assign(Traits::kSegments, false);
        for (unsigned i = 0; i < per_round; ++i) {
          const bool hit = cache_.access(round[i].addr).hit;
          if (round[i].kind == gift::TableAccess::Kind::kSBox) {
            out.sbox_hits[round[i].segment] = hit;
          }
        }
      } else {
        for (unsigned i = 0; i < per_round; ++i) cache_.touch(round[i].addr);
      }
      for (unsigned i = 0; i < config_.noise_accesses_per_round; ++i) {
        cache_.touch(NoiseAddressSpace::draw(config_.cache, noise_rng_));
      }
    }
  }

  Config config_;
  cachesim::Cache cache_;
  typename Traits::TableCipher cipher_;
  std::unique_ptr<CacheProber> prober_;
  Schedule schedule_;
  std::vector<unsigned> line_ids_;
  gift::VectorTraceSink sink_;
  /// One noise stream per platform, fixed-seeded so runs repeat.
  Xoshiro256 noise_rng_{0xA05E};
  unsigned focus_ = 0;
  Block last_pt_{};
  mutable Block last_ct_{};
  mutable bool last_ct_valid_ = true;  ///< Block{} before any observation
};

}  // namespace grinch::target
