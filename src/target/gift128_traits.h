// Target description of GIFT-128 for the generic pipeline.
//
// The NIST-LWC variant (GIFT-COFB et al.): 128-bit block, 40 rounds, 32
// segments, same 16-entry S-Box table and post-S-Box key addition as
// GIFT-64 — so it shares GIFT-64's key-free round 0.
#pragma once

#include <cstdint>

#include "common/key128.h"
#include "common/rng.h"
#include "gift/gift128.h"
#include "gift/table_gift.h"

namespace grinch::target {

struct Gift128Traits {
  using Block = gift::State128;
  using TableCipher = gift::TableGift128;

  static constexpr const char* kName = "gift128";
  static constexpr unsigned kSegments = gift::Gift128::kSegments;
  static constexpr unsigned kRounds = gift::Gift128::kRounds;
  static constexpr unsigned kAccessesPerRound =
      gift::TableGift128::accesses_per_round();
  /// Key mixed AFTER the S-Box layer: round 0 leaks nothing.
  static constexpr unsigned kFirstKeyDependentRound = 1;

  /// The attacker reads the 128-bit ciphertext; fold it for the
  /// Observation field (recovery verifies against the full value via
  /// ObservationSource::last_ciphertext() instead).
  static std::uint64_t fold_ciphertext(Block ct) noexcept {
    return ct.hi ^ ct.lo;
  }
  static Block reference_encrypt(Block pt, const Key128& key) {
    return gift::Gift128::encrypt(pt, key);
  }
  static Block random_block(Xoshiro256& rng) {
    // Braced init: hi then lo, guaranteed left-to-right RNG draw order.
    return Block{rng.block64(), rng.block64()};
  }
  static Block block_from_words(std::uint64_t lo, std::uint64_t hi) noexcept {
    return Block{hi, lo};
  }
  /// Restricts a random 128-bit value to the cipher's key space (full).
  static Key128 canonical_key(const Key128& key) noexcept { return key; }
};

}  // namespace grinch::target
