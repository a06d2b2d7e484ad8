// Time-driven attack variant (our extension; the paper's taxonomy cites
// Bernstein's cache-timing attack as ref [8]).
//
// The weakest attacker in the paper's §I taxonomy observes only the
// *total encryption time*.  In a table-based GIFT, a round-2 S-Box access
// hits (is fast) when its index already appeared in round 1 — and round-1
// indices are the plaintext nibbles, fully known to the attacker.  For
// the true candidate c of segment s, the predictor
//
//     I_c(pt) = [ n_s XOR c  appears among the plaintext nibbles ]
//
// correlates with a *shorter* encryption.  Averaging the timing gap
// mean(T | I=0) - mean(T | I=1) over many random plaintexts (stratified
// by the predicted value, with the exactly-known round-1 miss cost
// subtracted) and picking the largest-gap candidate estimates the two key
// bits per segment — no flush, no probe, no scheduler control.
//
// MEASURED FINDING (bench/extension_time_driven): unlike the access- and
// trace-driven channels, this estimator is *biased* on GIFT: the presence
// of a specific nibble value deterministically reshapes the indices of
// every later round (64-bit state, full diffusion in a few rounds), so
// wrong candidates acquire structural timing correlations of the same
// few-cycle order as the true signal.  Even 10^5-10^6 timings recover
// only roughly half the segments — a quantitative argument for why
// GRINCH is an access-driven attack.  The implementation is kept as the
// taxonomy's third data point, reporting per-segment margins so callers
// can rank confidence.
#pragma once

#include <array>
#include <cstdint>

#include "cachesim/cache.h"
#include "common/key128.h"
#include "common/rng.h"
#include "gift/key_schedule.h"
#include "gift/table_gift.h"

namespace grinch::attack {

struct TimeDrivenConfig {
  /// Encryptions to time (all segments share the same measurements).
  /// Time-driven attacks are sample-hungry: the per-access signal is a
  /// few cycles against hundreds of cycles of hit/miss noise from the
  /// other 27 rounds.
  std::uint64_t encryptions = 400000;
  std::uint64_t seed = 0x7173;
  /// Known-structure variance reduction: the attacker can compute the
  /// round-1 miss count exactly (= distinct plaintext nibbles, the table
  /// being cold) and subtract its cost before correlating.  Set to the
  /// cache's miss-hit latency difference; 0 disables the adjustment.
  double round1_miss_cycles = 49.0;
};

struct TimeDrivenResult {
  bool success = false;        ///< every segment produced a clear winner
  gift::RoundKey64 round_key{};  ///< best-guess round key (see header note)
  std::uint64_t encryptions = 0;
  /// Winner-vs-runner-up timing-gap margin per segment (confidence rank).
  std::array<double, 16> margins{};

  /// Segments whose guess matches `truth` (evaluation helper).
  [[nodiscard]] unsigned segments_correct(const gift::RoundKey64& truth)
      const noexcept {
    unsigned ok = 0;
    for (unsigned s = 0; s < 16; ++s) {
      const bool u_ok = ((round_key.u >> s) & 1u) == ((truth.u >> s) & 1u);
      const bool v_ok = ((round_key.v >> s) & 1u) == ((truth.v >> s) & 1u);
      ok += u_ok && v_ok;
    }
    return ok;
  }
};

/// Timing oracle: runs one full victim encryption and returns its
/// duration in cycles.  The soc::VictimProcess-based implementation
/// lives in time_driven.cpp; tests may supply their own.
class TimingOracle {
 public:
  virtual ~TimingOracle() = default;
  virtual std::uint64_t time_encryption(std::uint64_t plaintext) = 0;
};

/// A TimingOracle over the standard leaky victim and shared cache.
/// The cache is NOT flushed between encryptions except for the S-Box
/// lines at encryption start (cold start for the monitored table only;
/// steadier tables stay warm, as in real repeated-measurement setups).
class VictimTimingOracle final : public TimingOracle {
 public:
  explicit VictimTimingOracle(const Key128& victim_key,
                              const cachesim::CacheConfig& cache_config =
                                  cachesim::CacheConfig::paper_default());
  std::uint64_t time_encryption(std::uint64_t plaintext) override;

 private:
  Key128 key_;
  cachesim::Cache cache_;
  gift::TableLayout layout_;  // must precede cipher_ (used to build it)
  gift::TableGift64 cipher_;
};

/// Runs the correlation attack against `oracle` for round key 0.
[[nodiscard]] TimeDrivenResult time_driven_attack(TimingOracle& oracle,
                                                  const TimeDrivenConfig&
                                                      config);

}  // namespace grinch::attack
