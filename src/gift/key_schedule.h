// GIFT key schedule (shared by GIFT-64 and GIFT-128).
//
// The 128-bit key state K = k7||k6||...||k0 (16-bit words) is updated each
// round by
//
//   (k7, k6, ..., k1, k0)  <-  (k1 >>> 2, k0 >>> 12, k7, k6, ..., k2)
//
// i.e. a 32-bit right rotation of the whole state with the two wrapped
// words additionally rotated locally — exactly the "UpdateKey" box in
// Fig. 1 of the GRINCH paper.  GIFT-64 extracts the round key U||V from
// (k1, k0); GIFT-128 from (k5||k4, k1||k0).
//
// Beyond the plain schedule, the attack needs to know *which master-key
// bit* each round-key bit is (GRINCH recovers two round-key bits per
// attacked segment and must write them into the right master-key
// positions).  key_bit_origins runs the schedule symbolically at compile
// time to provide that mapping.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/key128.h"

namespace grinch::gift {

/// GIFT-64 round key: V_i XORs into state bit 4i, U_i into bit 4i+1.
struct RoundKey64 {
  std::uint16_t u = 0;
  std::uint16_t v = 0;
};

/// GIFT-128 round key: V_i XORs into state bit 4i+1, U_i into bit 4i+2.
struct RoundKey128 {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
};

/// Advances the key state by one round (spec "UpdateKey").
[[nodiscard]] Key128 update_key_state(const Key128& k) noexcept;

/// Inverse of update_key_state (used by decryption tests).
[[nodiscard]] Key128 revert_key_state(const Key128& k) noexcept;

/// Extracts the GIFT-64 round key from the current key state.
[[nodiscard]] RoundKey64 extract_round_key64(const Key128& k) noexcept;

/// Extracts the GIFT-128 round key from the current key state.
[[nodiscard]] RoundKey128 extract_round_key128(const Key128& k) noexcept;

/// Precomputed schedule: round keys plus per-round key states.
class KeySchedule {
 public:
  /// Expands `key` for `rounds` rounds.
  KeySchedule(const Key128& key, unsigned rounds);

  [[nodiscard]] unsigned rounds() const noexcept {
    return static_cast<unsigned>(states_.size());
  }

  /// Key state at the start of (0-based) round `r`.
  [[nodiscard]] const Key128& state(unsigned r) const { return states_.at(r); }

  [[nodiscard]] RoundKey64 round_key64(unsigned r) const {
    return extract_round_key64(states_.at(r));
  }
  [[nodiscard]] RoundKey128 round_key128(unsigned r) const {
    return extract_round_key128(states_.at(r));
  }

 private:
  std::vector<Key128> states_;
};

/// Symbolic schedule: entry [r][pos] is the master-key bit that key-state
/// bit `pos` holds at the start of (0-based) round r.  The schedule only
/// moves bits, so each round's entry is a permutation of 0..127.  GIFT-64
/// round key r reads V_i from state bit i and U_i from bit 16 + i;
/// GIFT-128 reads V_i from bit i and U_i from bit 64 + i.
template <unsigned Rounds>
[[nodiscard]] constexpr std::array<std::array<std::uint8_t, 128>, Rounds>
key_bit_origins() noexcept {
  std::array<std::array<std::uint8_t, 128>, Rounds> origins{};
  std::array<std::uint8_t, 128> idx{};
  for (unsigned i = 0; i < 128; ++i) idx[i] = static_cast<std::uint8_t>(i);
  for (unsigned r = 0; r < Rounds; ++r) {
    origins[r] = idx;
    // (k7..k0) <- (k1 >>> 2, k0 >>> 12, k7..k2); bit j of a word rotated
    // right by n is bit (j + n) % 16 of the old word.
    std::array<std::uint8_t, 128> next{};
    for (unsigned j = 0; j < 96; ++j) next[j] = idx[j + 32];
    for (unsigned j = 0; j < 16; ++j) {
      next[96 + j] = idx[(j + 12) % 16];
      next[112 + j] = idx[16 + (j + 2) % 16];
    }
    idx = next;
  }
  return origins;
}

}  // namespace grinch::gift
