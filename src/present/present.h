// PRESENT block cipher (Bogdanov et al., CHES 2007).
//
// PRESENT is GIFT's direct ancestor (the GRINCH paper positions GIFT as
// "a small PRESENT") and is part of ISO/IEC 29192-2.  It is included as
// an extension attack target and as a cross-check for the shared S-Box /
// bit-permutation substrates: like table-based GIFT, a table-based
// PRESENT leaks its S-Box indices through the cache.
//
// 64-bit block, 31 rounds, 80- or 128-bit key.  Verified against the
// CHES 2007 test vectors in tests/present/present_test.cpp.
//
// Attacker-side reference arithmetic (key verification, the 2^16 finalize
// search), table-driven and not constant-time; the table victim
// TablePresent80 (table_present.h) is the leak under study.
//
// Encryption fuses sBoxLayer and pLayer into one 8 × 256 table of 64-bit
// words (16 KB), built at compile time: entry [b][v] is the pLayer image
// of byte v at byte b after the S-Box.  The pLayer only moves bits and the
// S-Box stays within a byte, so a round is AddRoundKey and then 8 lookups
// ORed together.  PRESENT-80 steps its key register inline, one step per
// round, instead of expanding the schedule first.  Decryption runs the
// inverse layers one after the other on the expanded schedule.
#pragma once

#include <array>
#include <cstdint>

#include "common/key128.h"

namespace grinch::present {

/// The 32 AddRoundKey words of one encryption: index r keys round r,
/// index 31 is the final whitening key.
using RoundKeys = std::array<std::uint64_t, 32>;

/// PRESENT with an 80-bit key (stored in the low 80 bits of a Key128).
class Present80 {
 public:
  static constexpr unsigned kRounds = 31;

  [[nodiscard]] static std::uint64_t encrypt(std::uint64_t plaintext,
                                             const Key128& key);
  [[nodiscard]] static std::uint64_t decrypt(std::uint64_t ciphertext,
                                             const Key128& key);

  /// The key schedule, expanded on the stack (the same register steps
  /// encrypt() takes one round at a time).
  [[nodiscard]] static RoundKeys round_keys(const Key128& key) noexcept;
};

/// PRESENT with a 128-bit key.
class Present128 {
 public:
  static constexpr unsigned kRounds = 31;

  [[nodiscard]] static std::uint64_t encrypt(std::uint64_t plaintext,
                                             const Key128& key);
  [[nodiscard]] static std::uint64_t decrypt(std::uint64_t ciphertext,
                                             const Key128& key);
};

}  // namespace grinch::present
