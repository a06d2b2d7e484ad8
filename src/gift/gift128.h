// GIFT-128 block cipher (128-bit block, 128-bit key, 40 rounds).
//
// Same construction as GIFT-64 with a 128-bit state: round keys use
// (k5||k4, k1||k0) and land on state bits 4i+2 / 4i+1.  Verified against
// the published test vectors in tests/gift/gift128_test.cpp.
//
// The rounds are header-inline over compile-time tables, as in Gift64:
// SubCells then PermBits is the OR of 16 byte images of 128-bit words
// (16 x 256 word pairs, 64 KB), the inverse round takes the
// inverse-PermBits byte images (64 KB) and then the inverse S-Box on
// whole bytes, and the round constant is one precomputed word.
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

  constexpr State128& operator|=(const State128& other) noexcept {
    hi |= other.hi;
    lo |= other.lo;
    return *this;
  }
};

namespace detail {

/// Byte images of a 128-bit linear map: entry [b][v] is the image of the
/// state holding v in byte b (bytes 0..7 in lo, 8..15 in hi).
using ByteImages128 = std::array<std::array<State128, 256>, 16>;

/// SubCells then PermBits, fused.
extern const ByteImages128 kGift128RoundImages;
/// The inverse of PermBits.
extern const ByteImages128 kGift128InvPermImages;

[[nodiscard]] inline State128 or_byte_images(const ByteImages128& images,
                                             State128 state) noexcept {
  State128 out;
  for (unsigned b = 0; b < 16; ++b) {
    const std::uint64_t word = b < 8 ? state.lo : state.hi;
    const State128& image = images[b][(word >> (8 * (b % 8))) & 0xFF];
    out.hi |= image.hi;
    out.lo |= image.lo;
  }
  return out;
}

}  // namespace detail

class Gift128 : public GiftRounds<Gift128, State128> {
 public:
  using State = State128;
  using RoundKey = RoundKey128;
  static constexpr unsigned kRounds = 40;
  static constexpr unsigned kSegments = 32;

  /// The round key of key state `k`: U, V = k5||k4, k1||k0.
  [[nodiscard]] static RoundKey round_key(const Key128& k) noexcept {
    return extract_round_key128(k);
  }

  /// One full round; with a zero round key it yields the pre-key state.
  [[nodiscard]] static State round_function(State state, const RoundKey& rk,
                                            unsigned round_index) noexcept {
    return add_constant(
        add_round_key(
            detail::or_byte_images(detail::kGift128RoundImages, state), rk),
        round_index);
  }

  /// Inverse of round_function.
  [[nodiscard]] static State inverse_round_function(
      State state, const RoundKey& rk, unsigned round_index) noexcept {
    state = add_round_key(add_constant(state, round_index), rk);
    state = detail::or_byte_images(detail::kGift128InvPermImages, state);
    return {gift_inv_sub_cells64(state.hi), gift_inv_sub_cells64(state.lo)};
  }

  [[nodiscard]] static State add_round_key(State state,
                                           const RoundKey& rk) noexcept {
    const auto half = [](std::uint32_t word, unsigned shift) {
      return spread_to_nibbles(static_cast<std::uint16_t>(word >> shift));
    };
    state.lo ^= (half(rk.v, 0) << 1) ^ (half(rk.u, 0) << 2);
    state.hi ^= (half(rk.v, 16) << 1) ^ (half(rk.u, 16) << 2);
    return state;
  }

  /// The constant addition of (0-based) round `round_index`: the round
  /// constant's bits below the MSB go to lo, the MSB to hi.
  [[nodiscard]] static State add_constant(State state,
                                          unsigned round_index) noexcept {
    constexpr std::uint64_t kMsb = std::uint64_t{1} << 63;
    state.hi ^= kMsb;
    state.lo ^= round_constant_word(round_index) ^ kMsb;
    return state;
  }
};

extern template class GiftRounds<Gift128, State128>;

}  // namespace grinch::gift
