// Victim process: the trusted application encrypting with table-based GIFT.
//
// The victim executes one encryption round at a time against the shared
// cache, consuming simulated cycles per the cost model.  Running round by
// round gives the platform (scheduler / attacker) the interleaving points
// the GRINCH threat model needs: "it is possible to access the cache
// while the cipher is still in its intermediate state".
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/cache.h"
#include "common/key128.h"
#include "gift/table_gift.h"

namespace grinch::soc {

/// Instruction-cost model for the victim core (RISCY-class, in-order).
///
/// A GIFT round on the paper's FPGA SoC takes ~1.2 ms at 50 MHz
/// (= ~60k cycles; §IV-B3), dominated by RTOS/system overhead rather
/// than the 32 table lookups.  paper_calibrated() reproduces that scale;
/// the unit-test default keeps numbers small.
struct VictimCostModel {
  std::uint64_t cycles_per_access_setup = 4;  ///< address arithmetic etc.
  std::uint64_t cycles_round_tail = 32;       ///< key add, constants, loop
  std::uint64_t cycles_round_overhead = 0;    ///< OS/system time per round

  /// Calibrated so a round costs ~65k cycles, matching Table II
  /// (quantum 10 ms => probed rounds 2/4/8 at 10/25/50 MHz) and the
  /// ~1.2 ms inter-round time reported for 50 MHz.
  [[nodiscard]] static VictimCostModel paper_calibrated() noexcept {
    VictimCostModel m;
    m.cycles_round_overhead = 64500;
    return m;
  }
};

/// One timed table access as seen on the shared cache.
struct TimedAccess {
  std::uint64_t cycle = 0;  ///< completion time of the access
  gift::TableAccess access;
  bool hit = false;
};

/// Executes one GIFT-64 encryption round-by-round against a shared cache.
class VictimProcess {
 public:
  VictimProcess(const gift::TableGift64& cipher, cachesim::Cache& cache,
                const VictimCostModel& cost);

  /// Starts a new encryption at simulated time `start_cycle`.
  ///
  /// `max_rounds` bounds how deep the victim will execute (clamped to the
  /// cipher's round count): a platform that probes after round k only
  /// needs the access stream up to k, so generating further rounds is
  /// wasted work.  The truncated stream is the exact prefix of the full
  /// one; the full ciphertext stays available through full_ciphertext(),
  /// which completes the encryption functionally (no cache traffic) on
  /// first use.
  void begin_encryption(std::uint64_t plaintext, const Key128& key,
                        std::uint64_t start_cycle = 0,
                        unsigned max_rounds = gift::Gift64::kRounds);

  /// Runs rounds until `rounds_done() == rounds` (no-op if already there).
  std::uint64_t run_until_round(unsigned rounds);

  /// Runs access-by-access until the victim's clock reaches `limit` or the
  /// encryption finishes — this is how a scheduler preempts the victim
  /// mid-round at quantum expiry.  Returns the victim's clock.
  std::uint64_t run_until_cycle(std::uint64_t limit);

  /// Completes the available rounds; returns the (full) ciphertext.
  std::uint64_t finish();

  [[nodiscard]] unsigned rounds_done() const noexcept { return round_; }
  /// Accesses already executed within the current (partial) round.
  [[nodiscard]] unsigned accesses_into_round() const noexcept;
  /// True once every available round (begin_encryption's max_rounds,
  /// clamped) has executed against the cache.
  [[nodiscard]] bool done() const noexcept { return round_ >= avail_rounds_; }
  [[nodiscard]] std::uint64_t now() const noexcept { return cycle_; }
  [[nodiscard]] const std::vector<TimedAccess>& trace() const noexcept {
    return trace_;
  }
  /// Full ciphertext of the current encryption, regardless of how many
  /// rounds were executed or requested.  Truncated encryptions are
  /// completed functionally on first use (cached; no cache-sim traffic).
  [[nodiscard]] std::uint64_t full_ciphertext() const;

  /// Average cycles consumed per completed round of this encryption.
  [[nodiscard]] double cycles_per_round() const noexcept;

 private:
  const gift::TableGift64* cipher_;
  cachesim::Cache* cache_;
  VictimCostModel cost_;

  /// Executes one table access (or the round tail when the round's
  /// accesses are exhausted); advances round_/pos_.
  void step();

  std::uint64_t state_ = 0;      ///< cipher state after avail_rounds_
  std::uint64_t plaintext_ = 0;  ///< plaintext of the current encryption
  Key128 key_{};
  unsigned round_ = 0;
  unsigned avail_rounds_ = gift::Gift64::kRounds;  ///< rounds in sink_
  std::size_t pos_ = 0;  ///< next index into sink_.accesses()
  std::uint64_t cycle_ = 0;
  std::uint64_t start_cycle_ = 0;
  mutable std::uint64_t full_ct_ = 0;
  mutable bool full_ct_valid_ = true;  ///< 0 before any encryption
  std::vector<TimedAccess> trace_;
  /// Round keys of the current key, derived once and reused until the key
  /// changes (the observation hot path re-encrypts under one victim key).
  gift::TableGift64::Schedule schedule_;
  Key128 schedule_key_{};
  bool schedule_valid_ = false;
  /// Full logical access stream of the current encryption.  Reused
  /// (clear-and-refill) across encryptions: after the first encryption a
  /// VictimProcess allocates nothing — platforms keep one VictimProcess
  /// per victim and begin_encryption() it per monitored encryption.
  gift::VectorTraceSink sink_;
};

}  // namespace grinch::soc
