// 4-bit substitution boxes for the GIFT cipher family.
//
// GIFT's S-Box GS is the 16-entry table from Banik et al., "GIFT: a small
// PRESENT" (eprint 2017/622, Table 1).  The attack library additionally
// needs the inverse S-Box (Algorithm 1 of the GRINCH paper walks the S-Box
// backwards to build plaintext candidate lists), so both directions live
// here with bijectivity checked at construction.  Whole-state SubCells
// substitutes a byte — two nibbles — per lookup in a 256-entry table the
// constructor derives from the 16-entry one.
#pragma once

#include <array>
#include <cstdint>

namespace grinch::gift {

/// An invertible 4-bit substitution box.
class SBox {
 public:
  /// Builds the S-Box from its forward table; computes the inverse.
  /// Precondition (asserted): `table` is a permutation of 0..15.
  explicit SBox(const std::array<std::uint8_t, 16>& table);

  /// Forward substitution of a 4-bit value.
  [[nodiscard]] unsigned apply(unsigned v) const noexcept {
    return fwd_[v & 0xF];
  }

  /// Inverse substitution of a 4-bit value.
  [[nodiscard]] unsigned invert(unsigned v) const noexcept {
    return inv_[v & 0xF];
  }

  /// Applies the S-Box to every 4-bit segment of a 64-bit state.
  [[nodiscard]] std::uint64_t apply_state64(std::uint64_t state) const noexcept;

  /// Applies the inverse S-Box to every 4-bit segment of a 64-bit state.
  [[nodiscard]] std::uint64_t invert_state64(std::uint64_t state)
      const noexcept;

 private:
  std::array<std::uint8_t, 16> fwd_{};
  std::array<std::uint8_t, 16> inv_{};
  /// Both nibbles of a byte substituted at once: fwd_byte_[v] =
  /// fwd_[v >> 4] << 4 | fwd_[v & 0xF], likewise inv_byte_.
  std::array<std::uint8_t, 256> fwd_byte_{};
  std::array<std::uint8_t, 256> inv_byte_{};
};

/// The GIFT S-Box values, x -> GS(x) (eprint 2017/622, Table 1):
/// gift_sbox() reads them, and so do the compile-time tables below and
/// the round tables of the GIFT reference ciphers.
inline constexpr std::array<std::uint8_t, 16> kGiftSBox{
    0x1, 0xa, 0x4, 0xc, 0x6, 0xf, 0x3, 0x9,
    0x2, 0xd, 0xb, 0x7, 0x5, 0x0, 0x8, 0xe};

/// GS^-1 on both nibbles of a byte: entry v is GS^-1(v >> 4) << 4 |
/// GS^-1(v & 0xF).
inline constexpr auto kGiftInvSBoxBytes = [] {
  std::array<std::uint8_t, 16> inv{};
  for (unsigned x = 0; x < 16; ++x) {
    inv[kGiftSBox[x]] = static_cast<std::uint8_t>(x);
  }
  std::array<std::uint8_t, 256> bytes{};
  for (unsigned v = 0; v < 256; ++v) {
    bytes[v] = static_cast<std::uint8_t>((inv[v >> 4] << 4) | inv[v & 0xF]);
  }
  return bytes;
}();

/// GS^-1 on every nibble of a 64-bit word, a byte per lookup.
[[nodiscard]] inline std::uint64_t gift_inv_sub_cells64(
    std::uint64_t state) noexcept {
  std::uint64_t out = 0;
  for (unsigned b = 0; b < 8; ++b) {
    out |= std::uint64_t{kGiftInvSBoxBytes[(state >> (8 * b)) & 0xFF]}
           << (8 * b);
  }
  return out;
}

/// Algorithm 1's constraint lists: entry k holds, ascending, the inputs x
/// whose output GS(x) has bit k set.  Every GS output bit is balanced, so
/// each list holds exactly 8 inputs, and a uniform pick from one is the
/// low 3 bits of one draw.
inline constexpr auto kGiftInputsWithOutputBit = [] {
  std::array<std::array<std::uint8_t, 8>, 4> lists{};
  for (unsigned k = 0; k < 4; ++k) {
    unsigned n = 0;
    for (unsigned x = 0; x < 16; ++x) {
      if ((unsigned{kGiftSBox[x]} >> k) & 1u) {
        lists[k][n++] = static_cast<std::uint8_t>(x);
      }
    }
  }
  return lists;
}();
static_assert(
    [] {
      for (const auto& list : kGiftInputsWithOutputBit) {
        for (unsigned i = 1; i < 8; ++i) {
          if (list[i - 1] >= list[i]) return false;
        }
      }
      return true;
    }(),
    "every GS output bit must be set by exactly 8 inputs");

/// The GIFT S-Box GS (shared by GIFT-64 and GIFT-128).
[[nodiscard]] const SBox& gift_sbox();

/// The PRESENT S-Box values, x -> S(x) (Bogdanov et al., CHES 2007,
/// Table 1): present_sbox() reads them, and so do the compile-time round
/// tables of the PRESENT reference cipher.
inline constexpr std::array<std::uint8_t, 16> kPresentSBox{
    0xc, 0x5, 0x6, 0xb, 0x9, 0x0, 0xa, 0xd,
    0x3, 0xe, 0xf, 0x8, 0x4, 0x7, 0x1, 0x2};

/// The PRESENT S-Box (used by the PRESENT substrate and cross-cipher tests).
[[nodiscard]] const SBox& present_sbox();

}  // namespace grinch::gift
