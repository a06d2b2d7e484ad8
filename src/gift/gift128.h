// GIFT-128 block cipher (128-bit block, 128-bit key, 40 rounds).
//
// Same construction as GIFT-64 with a 128-bit state: round keys use
// (k5||k4, k1||k0) and land on state bits 4i+2 / 4i+1.  Verified against
// the published test vectors in tests/gift/gift128_test.cpp.
//
// Attacker-side reference arithmetic, table-driven and not constant-time:
// only BitslicedGift64 is; the table victims are the leak under study.
#pragma once

#include <cstdint>
#include <vector>

#include "common/key128.h"
#include "gift/key_schedule.h"

namespace grinch::gift {

/// 128-bit cipher state as two 64-bit halves (hi = bits 127..64).
struct State128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const State128&, const State128&) = default;

  /// 4-bit segment i (0..31); segment 0 = bits 3..0.
  [[nodiscard]] constexpr unsigned nibble(unsigned i) const noexcept {
    return i < 16 ? static_cast<unsigned>((lo >> (4 * i)) & 0xF)
                  : static_cast<unsigned>((hi >> (4 * (i - 16))) & 0xF);
  }

  [[nodiscard]] constexpr unsigned bit(unsigned pos) const noexcept {
    return pos < 64 ? static_cast<unsigned>((lo >> pos) & 1u)
                    : static_cast<unsigned>((hi >> (pos - 64)) & 1u);
  }

  constexpr void xor_bit(unsigned pos, unsigned value) noexcept {
    if (pos < 64)
      lo ^= static_cast<std::uint64_t>(value & 1u) << pos;
    else
      hi ^= static_cast<std::uint64_t>(value & 1u) << (pos - 64);
  }
};

class Gift128 {
 public:
  static constexpr unsigned kRounds = 40;
  static constexpr unsigned kSegments = 32;

  [[nodiscard]] static State128 encrypt(State128 plaintext, const Key128& key);
  [[nodiscard]] static State128 decrypt(State128 ciphertext,
                                        const Key128& key);

  /// Runs only the first `rounds` rounds (0 <= rounds <= kRounds).
  [[nodiscard]] static State128 encrypt_rounds(State128 plaintext,
                                               const Key128& key,
                                               unsigned rounds);

  /// result[r] = input of round r; result[kRounds] = ciphertext.
  [[nodiscard]] static std::vector<State128> round_states(State128 plaintext,
                                                          const Key128& key);

  [[nodiscard]] static State128 round_function(State128 state,
                                               const RoundKey128& rk,
                                               unsigned round_index);
  [[nodiscard]] static State128 inverse_round_function(State128 state,
                                                       const RoundKey128& rk,
                                                       unsigned round_index);
  [[nodiscard]] static State128 add_round_key(State128 state,
                                              const RoundKey128& rk);
};

}  // namespace grinch::gift
