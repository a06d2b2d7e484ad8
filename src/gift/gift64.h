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
// hypotheses, which requires replaying individual rounds.  The state and
// round-key types, round-key extraction, AddRoundKey and the round
// constant are the width facts that the whole-block entry points
// (gift_rounds.h) and the table victim (table_gift.h) run on.
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

#include "common/bits.h"
#include "common/key128.h"
#include "gift/constants.h"
#include "gift/gift_rounds.h"
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

class Gift64 : public GiftRounds<Gift64, std::uint64_t> {
 public:
  using State = std::uint64_t;
  using RoundKey = RoundKey64;
  static constexpr unsigned kRounds = 28;
  static constexpr unsigned kSegments = 16;

  /// The round key of key state `k`: U, V = k1, k0.
  [[nodiscard]] static RoundKey round_key(const Key128& k) noexcept {
    return extract_round_key64(k);
  }

  /// One full round: SubCells, PermBits, AddRoundKey with constant of
  /// (0-based) round `round_index`.  With a zero round key it yields the
  /// pre-key state the GRINCH predictor inverts.
  [[nodiscard]] static State round_function(State state, const RoundKey& rk,
                                            unsigned round_index) noexcept {
    return add_constant(
        add_round_key(
            detail::or_byte_images(detail::kGift64RoundImages, state), rk),
        round_index);
  }

  /// Inverse of round_function.
  [[nodiscard]] static State inverse_round_function(
      State state, const RoundKey& rk, unsigned round_index) noexcept {
    state = add_round_key(add_constant(state, round_index), rk);
    return gift_inv_sub_cells64(
        detail::or_byte_images(detail::kGift64InvPermImages, state));
  }

  /// AddRoundKey only (exposed for attack predictors and tests).
  [[nodiscard]] static State add_round_key(State state,
                                           const RoundKey& rk) noexcept {
    return state ^ spread_to_nibbles(rk.v) ^ (spread_to_nibbles(rk.u) << 1);
  }

  /// The constant addition of (0-based) round `round_index`, MSB
  /// included: one precomputed word.
  [[nodiscard]] static State add_constant(State state,
                                          unsigned round_index) noexcept {
    return state ^ round_constant_word(round_index);
  }
};

extern template class GiftRounds<Gift64, std::uint64_t>;

}  // namespace grinch::gift
