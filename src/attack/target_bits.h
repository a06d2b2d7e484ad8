// GRINCH Step 1a — "Set target bits" (Algorithm 1 of the paper).
//
// For a chosen segment `s` of the monitored round, the two round-key bits
// XORed into that segment land on state bits 4s (V_s) and 4s+1 (U_s).
// Walking the PermBits layer backwards locates the S-Box-output bits that
// feed those positions; walking the S-Box backwards lists every S-Box
// *input* value that forces each of those output bits to 1.  Crafted
// inputs drawn from those lists pin the target segment's two key-facing
// bits to 1, so the surviving S-Box index directly reveals the key bits
// (Key[i] <- NOT Index[a], paper Step 4).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>

#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::attack {

/// Output of Algorithm 1 for one target segment.
struct TargetBits {
  unsigned segment = 0;  ///< monitored-round segment (0..15)

  /// Positions (0..63) in the S-Box-layer output of the *previous* round
  /// that feed state bits 4s and 4s+1 through PermBits.
  unsigned bit_a = 0;  ///< feeds bit 4s   (XORed with V_s)
  unsigned bit_b = 0;  ///< feeds bit 4s+1 (XORed with U_s)

  /// Segments of the previous round's input that produce bit_a / bit_b.
  unsigned seg_a = 0;
  unsigned seg_b = 0;

  /// S-Box inputs whose output has a 1 at bit (bit_a % 4) / (bit_b % 4),
  /// ascending: 8 each, since every GIFT S-Box output bit is balanced.
  std::array<std::uint8_t, 8> list_a{};
  std::array<std::uint8_t, 8> list_b{};
};

/// Algorithm 1: derives the constraint lists for `segment`.
[[nodiscard]] constexpr TargetBits set_target_bits(unsigned segment) noexcept {
  assert(segment < 16);
  TargetBits t;
  t.segment = segment;
  // StatusBitXorKey: V_s lands on state bit 4s, U_s on 4s+1 (Fig. 1).
  // Inv_Permutation: where those bits live before PermBits, i.e. in the
  // S-Box-layer output.
  t.bit_a = gift::kGiftPInverse<64>[4 * segment];
  t.bit_b = gift::kGiftPInverse<64>[4 * segment + 1];
  t.seg_a = t.bit_a / 4;
  t.seg_b = t.bit_b / 4;
  // Every input Inv_SBOX[X] of an S-Box output X with the needed bit set
  // forces a 1 on the target bit.
  t.list_a = gift::kGiftInputsWithOutputBit[t.bit_a % 4];
  t.list_b = gift::kGiftInputsWithOutputBit[t.bit_b % 4];
  return t;
}

/// set_target_bits of every segment, built at compile time.
inline constexpr auto kTargetBits = [] {
  std::array<TargetBits, 16> targets{};
  for (unsigned s = 0; s < 16; ++s) targets[s] = set_target_bits(s);
  return targets;
}();

}  // namespace grinch::attack
