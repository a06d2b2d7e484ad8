// Cache-attack hooks for PRESENT-80 (our extension; generality of the
// GRINCH observation pipeline).
//
// PRESENT adds the round key *before* the S-Box layer:
//
//     round 0 S-Box index of segment s  =  nibble_s(plaintext XOR RK0)
//
// so the very first round leaks the top 64 key-register bits — no crafted
// plaintexts or multi-stage pipeline needed.  Each segment has 16 nibble
// candidates; absent cache lines eliminate them exactly as in GRINCH.
// RK0 covers key bits 79..16; the remaining 16 bits fall to an exhaustive
// search against one known plaintext/ciphertext pair.
//
// This file IS the whole PRESENT-80 port: everything else (platform,
// probers, elimination loop) comes from the generic target pipeline.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/key128.h"
#include "common/rng.h"
#include "target/candidate_mask.h"
#include "target/observation.h"
#include "target/present80_traits.h"
#include "target/recovery_engine.h"

namespace grinch::target {

/// Attack hooks driving KeyRecoveryEngine<Present80Recovery>: one stage of
/// random-plaintext joint elimination recovers RK0, then finalize()
/// brute-forces the 16 key bits the cache never sees.
struct Present80Recovery : Present80Traits {
  /// RK0 = key-register bits 79..16, one nibble per segment.
  using StageKey = std::uint64_t;

  static constexpr unsigned kStages = 1;
  static constexpr unsigned kCandidatesPerSegment = 16;
  /// Every segment's round-0 S-Box access shares one observation, so a
  /// single random plaintext updates all 16 masks at once.
  static constexpr bool kUpdateAllSegments = true;
  static constexpr std::uint64_t kDefaultSeed = 0x9135E27;  // "PRESENT"-ish

  /// No crafting needed: any random plaintext exercises every segment.
  class Crafter {
   public:
    explicit Crafter(Xoshiro256& rng) : rng_(&rng) {}
    [[nodiscard]] std::uint64_t craft(unsigned /*segment*/,
                                      const std::vector<std::uint64_t>&,
                                      unsigned /*stage*/) {
      return rng_->block64();
    }

   private:
    Xoshiro256* rng_;
  };

  static std::array<unsigned, 16> pre_key_nibbles(
      std::uint64_t plaintext, const std::vector<std::uint64_t>&,
      unsigned /*stage*/) {
    std::array<unsigned, 16> out{};
    for (unsigned s = 0; s < 16; ++s) out[s] = nibble(plaintext, s);
    return out;
  }

  /// Segment s of round 0 accesses index nibble_s(pt) ^ k_s.
  static unsigned candidate_index(unsigned nibble, unsigned v) noexcept {
    return (nibble ^ v) & 0xF;
  }

  static std::uint64_t stage_key_from(
      const std::array<CandidateMask<16>, 16>& masks) {
    std::uint64_t rk0 = 0;
    for (unsigned s = 0; s < 16; ++s) {
      rk0 |= static_cast<std::uint64_t>(masks[s].value()) << (4 * s);
    }
    return rk0;
  }

  /// Key bits 15..0, the ones the cache never sees, take 2^16 values.
  static constexpr std::uint64_t kLowKeys = std::uint64_t{1} << 16;

  /// The 80-bit key with register bits 79..16 = `rk0`, 15..0 = `low`.
  static Key128 key_with_low(std::uint64_t rk0, std::uint64_t low) noexcept {
    return Key128{rk0 >> 48, (rk0 << 16) | low};
  }

  /// The exhaustive search over key bits 15..0: the first low >= `start`
  /// whose key encrypts `pt` to `ct`, or kLowKeys when none does.
  static std::uint64_t search_low(std::uint64_t rk0, std::uint64_t start,
                                  std::uint64_t pt, std::uint64_t ct) {
    for (std::uint64_t low = start; low < kLowKeys; ++low) {
      if (reference_encrypt(pt, key_with_low(rk0, low)) == ct) return low;
    }
    return kLowKeys;
  }

  /// Residual-finisher verification hook (src/finisher/finisher.h): a
  /// candidate fixes RK0 (key bits 79..16); the 16 bits the cache never
  /// sees fall to the search finalize() runs, filtered on the first pair
  /// and confirmed on the rest.  offline_trials counts one trial per
  /// candidate tested and one per confirming pair.
  static bool finisher_verify(std::span<const std::uint64_t> stage_keys,
                              std::span<const std::uint64_t> pts,
                              std::span<const std::uint64_t> cts,
                              Key128& key_out,
                              std::uint64_t& offline_trials) {
    const std::uint64_t rk0 = stage_keys[0];
    for (std::uint64_t start = 0; start < kLowKeys;) {
      const std::uint64_t low = search_low(rk0, start, pts[0], cts[0]);
      if (low == kLowKeys) {
        offline_trials += kLowKeys - start;
        break;
      }
      offline_trials += low + 1 - start;
      const Key128 key = key_with_low(rk0, low);
      bool ok = true;
      for (std::size_t i = 1; i < pts.size() && ok; ++i) {
        ++offline_trials;
        ok = reference_encrypt(pts[i], key) == cts[i];
      }
      if (ok) {
        key_out = key;
        return true;
      }
      start = low + 1;
    }
    return false;
  }

  /// Brute-forces key bits 15..0 given RK0, against the last observed
  /// plaintext/ciphertext pair.
  static void finalize(RecoveryResult<Present80Recovery>& result,
                       ObservationSource<std::uint64_t>& /*source*/,
                       Xoshiro256& /*rng*/, std::uint64_t last_pt,
                       std::uint64_t last_ct) {
    const std::uint64_t rk0 = result.stage_keys[0];
    result.offline_trials = kLowKeys;
    const std::uint64_t low = search_low(rk0, 0, last_pt, last_ct);
    // No match: RK0 must have been wrong (noise); success stays false.
    if (low == kLowKeys) return;
    result.recovered_key = key_with_low(rk0, low);
    result.key_verified = true;
    result.success = true;
  }
};

}  // namespace grinch::target
