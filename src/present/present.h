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

  /// The key schedule, expanded on the stack.
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
