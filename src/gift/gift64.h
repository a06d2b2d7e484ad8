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
// The rounds are header-inline over tables built at compile time.  The
// S-Box stays within a nibble and PermBits only moves bits, so SubCells
// then PermBits is the OR of 8 byte images: entry [b][v] of the fused
// table is the PermBits image of byte b holding value v after the S-Box
// (8 x 256 words, 16 KB).  The inverse round takes the inverse-PermBits
// byte images (16 KB) and then the inverse S-Box on whole bytes, and the
// round constant is one precomputed word (gift/constants.h).
// tests/gift/gift64_test.cpp checks every round against the per-bit
// layers of tests/oracle/layer_oracle.h.
//
// Attacker-side reference arithmetic, table-driven and not constant-time:
// only BitslicedGift64 is; the table victims are the leak under study.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bits.h"
#include "common/key128.h"
#include "gift/constants.h"
#include "gift/key_schedule.h"
#include "gift/sbox.h"

namespace grinch::gift {

namespace detail {

/// Byte images of a 64-bit linear map: entry [b][v] is the image of the
/// word holding v in byte b, so the map of a word is the OR over its 8
/// bytes.
using ByteImages64 = std::array<std::array<std::uint64_t, 256>, 8>;

/// SubCells then PermBits, fused (see the header comment).
extern const ByteImages64 kGift64RoundImages;
/// The inverse of PermBits.
extern const ByteImages64 kGift64InvPermImages;

[[nodiscard]] inline std::uint64_t or_byte_images(
    const ByteImages64& images, std::uint64_t state) noexcept {
  std::uint64_t out = 0;
  for (unsigned b = 0; b < 8; ++b) {
    out |= images[b][(state >> (8 * b)) & 0xFF];
  }
  return out;
}

}  // namespace detail

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
  /// (0-based) round `round_index`.  With a zero round key it yields the
  /// pre-key state the GRINCH predictor inverts.
  [[nodiscard]] static std::uint64_t round_function(
      std::uint64_t state, const RoundKey64& rk,
      unsigned round_index) noexcept {
    return add_round_key(
               detail::or_byte_images(detail::kGift64RoundImages, state),
               rk) ^
           round_constant_word(round_index);
  }

  /// Inverse of round_function.
  [[nodiscard]] static std::uint64_t inverse_round_function(
      std::uint64_t state, const RoundKey64& rk,
      unsigned round_index) noexcept {
    state = add_round_key(state ^ round_constant_word(round_index), rk);
    return gift_inv_sub_cells64(
        detail::or_byte_images(detail::kGift64InvPermImages, state));
  }

  /// AddRoundKey only (exposed for attack predictors and tests).
  [[nodiscard]] static std::uint64_t add_round_key(
      std::uint64_t state, const RoundKey64& rk) noexcept {
    return state ^ spread_to_nibbles(rk.v) ^ (spread_to_nibbles(rk.u) << 1);
  }
};

}  // namespace grinch::gift
