// GRINCH attack hooks for GIFT-128 (our extension; the paper attacks
// GIFT-64).
//
// GIFT-128 is the variant actually used by GIFT-COFB and most GIFT-based
// NIST LWC candidates, so demonstrating the attack there closes the loop
// on the paper's motivation.  Structurally everything carries over:
//
//  * round 1 is key-free, so the attacker knows the full pre-key state of
//    round 2;
//  * each of the 32 segments receives two round-key bits — V_i on state
//    bit 4i+1 and U_i on bit 4i+2 (one position higher than GIFT-64);
//  * the permutation preserves i mod 4, so the pinned source bits are
//    always the bit-1 / bit-2 outputs of two distinct S-Boxes;
//  * round constants only touch bit-3 positions — never the key-facing
//    bits;
//  * GIFT-128 consumes 64 key bits per round, so TWO stages recover the
//    whole 128-bit key (vs. four for GIFT-64).
//
// The candidate encoding is c = (u << 1) | v with index = n XOR (c << 1):
// the key pair sits one bit higher inside the nibble than in GIFT-64.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/key128.h"
#include "common/rng.h"
#include "gift/gift128.h"
#include "gift/key_schedule.h"
#include "gift/permutation.h"
#include "gift/sbox.h"
#include "target/candidate_mask.h"
#include "target/gift128_traits.h"
#include "target/observation.h"
#include "target/recovery_engine.h"

namespace grinch::target {

/// Algorithm 1 for GIFT-128: the two source S-Box output bits feeding the
/// key-facing positions 4s+1 / 4s+2 of target segment `s` (0..31).
struct TargetBits128 {
  unsigned segment = 0;
  unsigned bit_a = 0;  ///< feeds 4s+1 (V_s); bit_a % 4 == 1
  unsigned bit_b = 0;  ///< feeds 4s+2 (U_s); bit_b % 4 == 2
  unsigned seg_a = 0;
  unsigned seg_b = 0;
  std::array<std::uint8_t, 8> list_a{};
  std::array<std::uint8_t, 8> list_b{};
};

[[nodiscard]] constexpr TargetBits128 set_target_bits128(
    unsigned segment) noexcept {
  assert(segment < 32);
  TargetBits128 t;
  t.segment = segment;
  t.bit_a = gift::kGiftPInverse<128>[4 * segment + 1];  // V_s position
  t.bit_b = gift::kGiftPInverse<128>[4 * segment + 2];  // U_s position
  t.seg_a = t.bit_a / 4;
  t.seg_b = t.bit_b / 4;
  t.list_a = gift::kGiftInputsWithOutputBit[t.bit_a % 4];
  t.list_b = gift::kGiftInputsWithOutputBit[t.bit_b % 4];
  return t;
}

/// set_target_bits128 of every segment, built at compile time.
inline constexpr auto kTargetBits128 = [] {
  std::array<TargetBits128, 32> targets{};
  for (unsigned s = 0; s < 32; ++s) targets[s] = set_target_bits128(s);
  return targets;
}();

/// Pre-key nibbles of the monitored round (round `stage`+1's S-Box
/// indices minus the key XOR); needs exact round keys 0..stage-1.
[[nodiscard]] std::array<unsigned, 32> pre_key_nibbles128(
    gift::State128 plaintext,
    std::span<const gift::RoundKey128> known_round_keys, unsigned stage);

/// Algorithm 2 for GIFT-128 + the Step-5 inversion to a plaintext.
class PlaintextCrafter128 {
 public:
  explicit PlaintextCrafter128(Xoshiro256& rng) : rng_(&rng) {}

  [[nodiscard]] gift::State128 craft_state(const TargetBits128& target);
  [[nodiscard]] gift::State128 craft_plaintext(
      const TargetBits128& target,
      std::span<const gift::RoundKey128> known_round_keys, unsigned stage);

 private:
  Xoshiro256* rng_;
};

/// Assembles the GIFT-128 master key from the two recovered round keys.
[[nodiscard]] Key128 assemble_master_key128(
    std::span<const gift::RoundKey128> round_keys);

/// Attack hooks driving KeyRecoveryEngine<Gift128Recovery>: two stages of
/// crafted-plaintext elimination recover 64 key bits each.
struct Gift128Recovery : Gift128Traits {
  using StageKey = gift::RoundKey128;

  static constexpr unsigned kStages = 2;
  static constexpr unsigned kCandidatesPerSegment = 4;
  static constexpr bool kUpdateAllSegments = false;
  static constexpr std::uint64_t kDefaultSeed = 0x128A77;

  class Crafter {
   public:
    explicit Crafter(Xoshiro256& rng) : inner_(rng) {}
    [[nodiscard]] gift::State128 craft(
        unsigned segment, const std::vector<gift::RoundKey128>& recovered,
        unsigned stage) {
      return inner_.craft_plaintext(kTargetBits128[segment], recovered,
                                    stage);
    }

   private:
    PlaintextCrafter128 inner_;
  };

  static std::array<unsigned, 32> pre_key_nibbles(
      gift::State128 plaintext,
      const std::vector<gift::RoundKey128>& known_round_keys, unsigned stage) {
    return pre_key_nibbles128(plaintext, known_round_keys, stage);
  }

  /// index = n XOR (c << 1): the key pair occupies nibble bits 1..2.
  static unsigned candidate_index(unsigned nibble, unsigned c) noexcept {
    return (nibble ^ (c << 1)) & 0xF;
  }

  static gift::RoundKey128 stage_key_from(
      const std::array<CandidateMask<4>, 32>& masks) {
    gift::RoundKey128 rk{};
    for (unsigned s = 0; s < 32; ++s) {
      const unsigned c = masks[s].value();
      rk.u |= static_cast<std::uint32_t>((c >> 1) & 1u) << s;
      rk.v |= static_cast<std::uint32_t>(c & 1u) << s;
    }
    return rk;
  }

  /// Residual-finisher verification hook (src/finisher/finisher.h).
  static bool finisher_verify(std::span<const gift::RoundKey128> stage_keys,
                              std::span<const gift::State128> pts,
                              std::span<const gift::State128> cts,
                              Key128& key_out,
                              std::uint64_t& offline_trials) {
    const Key128 key = assemble_master_key128(stage_keys);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      ++offline_trials;
      if (!(reference_encrypt(pts[i], key) == cts[i])) return false;
    }
    key_out = key;
    return true;
  }

  /// Assembles the master key and verifies it against one more observed
  /// encryption's full 128-bit ciphertext.
  static void finalize(RecoveryResult<Gift128Recovery>& result,
                       ObservationSource<gift::State128>& source,
                       Xoshiro256& rng, gift::State128 last_pt,
                       std::uint64_t last_ct);
};

}  // namespace grinch::target
