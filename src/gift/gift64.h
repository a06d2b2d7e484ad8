// GIFT-64 block cipher (64-bit block, 128-bit key, 28 rounds).
//
// Reference implementation written directly from the specification
// (eprint 2017/622); verified against the published test vectors in
// tests/gift/gift64_test.cpp.  Each round is
//
//     SubCells -> PermBits -> AddRoundKey(+ round constant)
//
// The class also exposes per-round intermediate states and the bare round
// function: the GRINCH attack predicts round-R S-Box indices under key
// hypotheses, which requires replaying individual rounds.
//
// Attacker-side reference arithmetic, table-driven and not constant-time:
// only BitslicedGift64 is; the table victims are the leak under study.
#pragma once

#include <cstdint>
#include <vector>

#include "common/key128.h"
#include "gift/key_schedule.h"

namespace grinch::gift {

class Gift64 {
 public:
  static constexpr unsigned kRounds = 28;
  static constexpr unsigned kSegments = 16;

  /// Encrypts one 64-bit block under `key`.
  [[nodiscard]] static std::uint64_t encrypt(std::uint64_t plaintext,
                                             const Key128& key);

  /// Decrypts one 64-bit block under `key`.
  [[nodiscard]] static std::uint64_t decrypt(std::uint64_t ciphertext,
                                             const Key128& key);

  /// Runs only the first `rounds` rounds (0 <= rounds <= kRounds).
  [[nodiscard]] static std::uint64_t encrypt_rounds(std::uint64_t plaintext,
                                                    const Key128& key,
                                                    unsigned rounds);

  /// All intermediate states: result[r] is the input of (0-based) round r,
  /// result[kRounds] is the ciphertext.  Size kRounds+1.
  [[nodiscard]] static std::vector<std::uint64_t> round_states(
      std::uint64_t plaintext, const Key128& key);

  /// One full round: SubCells, PermBits, AddRoundKey with constant of
  /// (0-based) round `round_index`.
  [[nodiscard]] static std::uint64_t round_function(std::uint64_t state,
                                                    const RoundKey64& rk,
                                                    unsigned round_index);

  /// Inverse of round_function.
  [[nodiscard]] static std::uint64_t inverse_round_function(
      std::uint64_t state, const RoundKey64& rk, unsigned round_index);

  /// AddRoundKey only (exposed for attack predictors and tests).
  [[nodiscard]] static std::uint64_t add_round_key(std::uint64_t state,
                                                   const RoundKey64& rk);
};

}  // namespace grinch::gift
