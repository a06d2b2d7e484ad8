// The block-type-independent core of channel fault injection.
//
// FaultChannel is the corruption state machine FaultyObservationSource
// wraps around a platform: five independent Xoshiro256 sub-streams (one
// per fault mode, sub-seeded from FaultProfile::seed via SplitMix64), the
// burst countdown, the stale-replay memory and the fault counters.  It is
// extracted from the decorator so the multi-trial wide recovery engine
// (target/wide_engine.h) can run one independent channel per lane — same
// draw schedule, same precedence, same statistics — without carrying a
// full ObservationSource decorator per lane.
//
// Determinism contract (unchanged from the decorator): each enabled mode
// draws exactly once per delivered observation (line-level modes once per
// monitored line), regardless of what the other modes decided, so
// corruption is a pure function of the delivered-observation sequence.
// State is value-copyable: save()/restore() give the decorator its
// checkpoint/rewind discipline for speculative batches.
//
// Because no draw reads the observation, one delivery splits in two:
// draw() makes every random decision of the next observation before the
// probe runs, and apply() delivers the probe through them; corrupt() is
// apply(draw(), o).  A draw that discards_probe() — a burst, a drop, or a
// stale replay once an earlier delivery exists — delivers the same
// observation and leaves the same state whatever the probe read, so the
// wide engine does not simulate that encryption at all on caches where
// skipping it changes no later verdict (target/wide_engine.h).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "target/fault_model.h"
#include "target/line_set.h"
#include "target/observation.h"
#include "target/table_layout.h"

namespace grinch::target {

class FaultChannel {
 public:
  /// Faults delivered so far (consumed-prefix accurate under restore()).
  struct Stats {
    std::uint64_t observations = 0;  ///< delivered through the channel
    std::uint64_t dropped = 0;       ///< marked Observation::dropped
    std::uint64_t stale = 0;         ///< previous line set replayed
    std::uint64_t bursts = 0;        ///< burst windows started
    std::uint64_t burst_corrupted = 0;  ///< observations inside a burst
    std::uint64_t lines_flipped_absent = 0;
    std::uint64_t lines_flipped_present = 0;

    bool operator==(const Stats&) const = default;
  };

  /// Everything a rewind must restore: the five sub-streams, the burst
  /// countdown, the stale-replay memory, and the counters.
  struct State {
    Xoshiro256 absent_rng{0}, present_rng{0}, drop_rng{0}, stale_rng{0},
        burst_rng{0};
    unsigned burst_remaining = 0;
    LineSet last_present;
    bool has_last = false;
    Stats stats;

    bool operator==(const State&) const = default;
  };

  /// One observation's fault decisions, made before its probe runs.
  /// Precedence among the whole-observation modes is burst > dropped >
  /// stale (a preempted attacker cannot also probe).
  struct Draw {
    std::uint64_t garbage = 0;      ///< burst occupancy, one bit per row
    std::uint64_t evict_mask = 0;   ///< rows of lines flipped absent
    std::uint64_t inject_mask = 0;  ///< rows of lines flipped present
    bool burst_started = false;     ///< a burst window opens here
    bool burst = false;             ///< inside a burst: deliver garbage
    bool dropped = false;           ///< the probe missed the window
    bool stale = false;             ///< replay the previous delivery
  };

  /// Line grouping: rows of the observation bitset that share a cache
  /// line corrupt together.  Row r holds sbox_entries_per_row indices,
  /// and `index_line_ids` names each index's line (the inner source's
  /// index_line_ids()).
  FaultChannel(const FaultProfile& profile, const TableLayout& layout,
               std::span<const unsigned> index_line_ids)
      : profile_(profile), rows_(layout.sbox_rows()) {
    SplitMix64 seeder{profile.seed};
    state_.absent_rng = Xoshiro256{seeder.next()};
    state_.present_rng = Xoshiro256{seeder.next()};
    state_.drop_rng = Xoshiro256{seeder.next()};
    state_.stale_rng = Xoshiro256{seeder.next()};
    state_.burst_rng = Xoshiro256{seeder.next()};
    unsigned lines = 0;
    std::array<std::uint64_t, LineSet::kMaxBits> mask_of_line{};
    std::array<bool, LineSet::kMaxBits> seen{};
    for (unsigned r = 0; r < rows_; ++r) {
      const unsigned line = index_line_ids[r * layout.sbox_entries_per_row];
      mask_of_line[line] |= std::uint64_t{1} << r;
      if (!seen[line]) {
        seen[line] = true;
        ++lines;
      }
    }
    line_masks_.assign(mask_of_line.begin(), mask_of_line.begin() + lines);
  }

  /// Makes every draw of the next observation without reading it,
  /// advancing each enabled sub-stream by its fixed draw count.  Each
  /// draw() must be delivered by exactly one apply() before the next.
  [[nodiscard]] Draw draw() {
    State& ch = state_;
    Draw d;
    // Fixed draw schedule: each enabled mode draws regardless of what the
    // other modes decided, so the streams stay independent of each
    // other's rates.
    if (profile_.burst_rate > 0.0 && ch.burst_remaining == 0 &&
        hit(ch.burst_rng, profile_.burst_rate)) {
      ch.burst_remaining = profile_.burst_length;
      d.burst_started = true;
    }
    d.dropped =
        profile_.dropped_rate > 0.0 && hit(ch.drop_rng, profile_.dropped_rate);
    d.stale =
        profile_.stale_rate > 0.0 && hit(ch.stale_rng, profile_.stale_rate);
    if (profile_.false_absent_rate > 0.0) {
      for (const std::uint64_t m : line_masks_) {
        if (hit(ch.absent_rng, profile_.false_absent_rate)) d.evict_mask |= m;
      }
    }
    if (profile_.false_present_rate > 0.0) {
      for (const std::uint64_t m : line_masks_) {
        if (hit(ch.present_rng, profile_.false_present_rate)) {
          d.inject_mask |= m;
        }
      }
    }
    if (ch.burst_remaining > 0) {
      --ch.burst_remaining;
      d.burst = true;
      // Scheduler preemption: the probe reports uniform garbage occupancy.
      for (const std::uint64_t m : line_masks_) {
        if (ch.burst_rng.coin() != 0) d.garbage |= m;
      }
    }
    return d;
  }

  /// True when `d` delivers the same observation and leaves the same
  /// state whatever the probe read: a burst, a drop, or a stale replay
  /// of an earlier delivery (the first delivery has none to replay, so a
  /// stale draw there still delivers the probe).
  [[nodiscard]] bool discards_probe(const Draw& d) const noexcept {
    return d.burst || d.dropped || (d.stale && state_.has_last);
  }

  /// Delivers one observation through the draw made for it, in place.
  void apply(const Draw& d, Observation& o) {
    State& ch = state_;
    ++ch.stats.observations;
    if (d.burst_started) ++ch.stats.bursts;
    if (d.burst) {
      ++ch.stats.burst_corrupted;
      o.present = LineSet::from_word(d.garbage, rows_);
    } else if (d.dropped) {
      ++ch.stats.dropped;
      // The probe missed the window: flag it (detectable) and report the
      // uninformative all-present set in case a consumer looks anyway.
      o.dropped = true;
      o.present.assign(rows_, true);
    } else if (d.stale && ch.has_last) {
      ++ch.stats.stale;
      o.present = ch.last_present;
    } else {
      const std::uint64_t before = o.present.word();
      const std::uint64_t after = (before & ~d.evict_mask) | d.inject_mask;
      ch.stats.lines_flipped_absent +=
          static_cast<std::uint64_t>(std::popcount(before & d.evict_mask));
      ch.stats.lines_flipped_present +=
          static_cast<std::uint64_t>(std::popcount(d.inject_mask & ~before));
      o.present = LineSet::from_word(after, rows_);
    }

    ch.last_present = o.present;
    ch.has_last = true;
  }

  /// Applies one observation's worth of faults in place.
  void corrupt(Observation& o) { apply(draw(), o); }

  [[nodiscard]] const State& state() const noexcept { return state_; }
  void restore(const State& state) { state_ = state; }

  [[nodiscard]] const Stats& stats() const noexcept { return state_.stats; }
  [[nodiscard]] const FaultProfile& profile() const noexcept {
    return profile_;
  }

 private:
  static bool hit(Xoshiro256& rng, double rate) noexcept {
    // 53-bit uniform in [0, 1): deterministic, unbiased enough for rates.
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    return u < rate;
  }

  FaultProfile profile_;
  unsigned rows_ = 0;
  /// Per-line row bitmasks (one entry per distinct cache line).
  std::vector<std::uint64_t> line_masks_;
  State state_;
};

}  // namespace grinch::target
