// The block-type-independent core of channel fault injection.
//
// FaultChannel is the corruption state machine FaultyObservationSource
// wraps around a platform: five independent Xoshiro256 sub-streams (one
// per fault mode, sub-seeded from FaultProfile::seed via SplitMix64), the
// burst countdown, the stale-replay memory and the fault counters.  It is
// extracted from the decorator so the multi-trial wide recovery engine
// (target/wide_engine.h) can run one independent channel per trial —
// same draw schedule, same precedence, same statistics — without
// carrying a full ObservationSource decorator per trial.
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
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>

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
      : profile_(profile),
        rows_(layout.sbox_rows()),
        absent_threshold_(hit_threshold(profile.false_absent_rate)),
        present_threshold_(hit_threshold(profile.false_present_rate)),
        drop_threshold_(hit_threshold(profile.dropped_rate)),
        stale_threshold_(hit_threshold(profile.stale_rate)),
        burst_threshold_(hit_threshold(profile.burst_rate)) {
    SplitMix64 seeder{profile.seed};
    state_.absent_rng = Xoshiro256{seeder.next()};
    state_.present_rng = Xoshiro256{seeder.next()};
    state_.drop_rng = Xoshiro256{seeder.next()};
    state_.stale_rng = Xoshiro256{seeder.next()};
    state_.burst_rng = Xoshiro256{seeder.next()};
    // Rows sample the table in index order, so their lines are numbered
    // 0, 1, ... in first-seen order and line_masks_[0, lines_) is dense.
    assert(rows_ <= kMaxLines);
    for (unsigned r = 0; r < rows_; ++r) {
      const unsigned line = index_line_ids[r * layout.sbox_entries_per_row];
      assert(line < kMaxLines);
      if (line_masks_[line] == 0) ++lines_;
      line_masks_[line] |= std::uint64_t{1} << r;
    }
  }

  /// The whole-number form of one rate's draw: a draw k = next() >> 11
  /// hits iff k < hit_threshold(rate).  k < 2^53, so k * 2^-53 is exact,
  /// and so is rate * 2^53; k * 2^-53 < rate therefore holds iff
  /// k < rate * 2^53, iff k < ceil(rate * 2^53).  Every k hits once
  /// rate >= 1, none when rate is not positive (or NaN).
  [[nodiscard]] static std::uint64_t hit_threshold(double rate) noexcept {
    constexpr std::uint64_t kAll = std::uint64_t{1} << 53;
    if (!(rate > 0.0)) return 0;
    if (rate >= 1.0) return kAll;
    return static_cast<std::uint64_t>(std::ceil(rate * 0x1.0p53));
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
        hit(ch.burst_rng, burst_threshold_) != 0) {
      ch.burst_remaining = profile_.burst_length;
      d.burst_started = true;
    }
    d.dropped = profile_.dropped_rate > 0.0 &&
                hit(ch.drop_rng, drop_threshold_) != 0;
    d.stale =
        profile_.stale_rate > 0.0 && hit(ch.stale_rng, stale_threshold_) != 0;
    // The absent and present streams draw once per line each; one loop
    // interleaves them without moving a draw within either stream.  The
    // loops draw from local copies, which stay in registers.
    const bool absent = profile_.false_absent_rate > 0.0;
    const bool present = profile_.false_present_rate > 0.0;
    if (absent || present) {
      Xoshiro256 absent_rng = ch.absent_rng;
      Xoshiro256 present_rng = ch.present_rng;
      for (unsigned i = 0; i < lines_; ++i) {
        const std::uint64_t m = line_masks_[i];
        if (absent) d.evict_mask |= m & hit(absent_rng, absent_threshold_);
        if (present) d.inject_mask |= m & hit(present_rng, present_threshold_);
      }
      ch.absent_rng = absent_rng;
      ch.present_rng = present_rng;
    }
    if (ch.burst_remaining > 0) {
      --ch.burst_remaining;
      d.burst = true;
      // Scheduler preemption: the probe reports uniform garbage occupancy.
      Xoshiro256 burst_rng = ch.burst_rng;
      for (unsigned i = 0; i < lines_; ++i) {
        d.garbage |= line_masks_[i] & (0 - std::uint64_t{burst_rng.coin()});
      }
      ch.burst_rng = burst_rng;
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
  /// Every S-Box row has its own line at most (sbox_rows() <= 16).
  static constexpr unsigned kMaxLines = 16;

  /// One draw of a rate's stream: all ones on a hit, 0 otherwise.
  static std::uint64_t hit(Xoshiro256& rng, std::uint64_t threshold) noexcept {
    return 0 - std::uint64_t{(rng.next() >> 11) < threshold};
  }

  FaultProfile profile_;
  unsigned rows_ = 0;
  /// hit_threshold() of each rate, fixed with the profile.
  std::uint64_t absent_threshold_;
  std::uint64_t present_threshold_;
  std::uint64_t drop_threshold_;
  std::uint64_t stale_threshold_;
  std::uint64_t burst_threshold_;
  /// Per-line row bitmasks: line_masks_[i] for the lines_ distinct lines.
  std::array<std::uint64_t, kMaxLines> line_masks_{};
  unsigned lines_ = 0;
  State state_;
};

}  // namespace grinch::target
