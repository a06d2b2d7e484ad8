// Bit permutations for GIFT (PermBits layer).
//
// The permutations are generated from the closed forms in the GIFT paper
// (eprint 2017/622, Section 2.1):
//
//   GIFT-64 :  P64(i)  = 4⌊i/16⌋ + 16[(3⌊(i mod 16)/4⌋ + (i mod 4)) mod 4]
//                        + (i mod 4)
//   GIFT-128:  P128(i) = 4⌊i/16⌋ + 32[(3⌊(i mod 16)/4⌋ + (i mod 4)) mod 4]
//                        + (i mod 4)
//
// The GRINCH attack needs the inverse permutation explicitly (Algorithm 1
// maps round-key bit positions back to S-Box output bit positions), so
// BitPermutation exposes both directions.
//
// Applying a 64-bit permutation to a whole state is table-driven.  A bit
// permutation only moves bits, so it is linear over GF(2): the image of a
// state is the OR of the images of its bytes.  The constructor of a
// width-64 permutation expands the closed-form map into one byte image
// per input byte and direction — entry [b][v] is the OR of bit
// forward(8b + k) (resp. inverse(8b + k)) over the set bits k of v — and
// never changes them afterwards.  A state then takes 8 lookups instead of
// one loop step per bit, from 16 KB of images per direction;
// tests/gift/permutation_test.cpp checks them against the per-bit map on
// random states.  The GIFT reference ciphers run their rounds from
// compile-time images of the same kind, which gift_byte_images below
// builds for both widths (gift64.h, gift128.h).
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "gift/sbox.h"

namespace grinch::gift {

/// A bit permutation over `width` bit positions (width ≤ 128).
class BitPermutation {
 public:
  /// Builds from a forward map: bit i of the input moves to bit map[i]
  /// of the output.  Precondition (asserted): `map` is a permutation.
  explicit BitPermutation(std::vector<unsigned> map);

  [[nodiscard]] unsigned width() const noexcept {
    return static_cast<unsigned>(fwd_.size());
  }

  /// Destination of input bit `i`.
  [[nodiscard]] unsigned forward(unsigned i) const noexcept { return fwd_[i]; }

  /// Source of output bit `j` (the inverse permutation).
  [[nodiscard]] unsigned inverse(unsigned j) const noexcept { return inv_[j]; }

  /// Permutes a 64-bit state. Precondition: width() == 64.
  [[nodiscard]] std::uint64_t apply64(std::uint64_t state) const noexcept;

  /// Inverse-permutes a 64-bit state. Precondition: width() == 64.
  [[nodiscard]] std::uint64_t invert64(std::uint64_t state) const noexcept;

 private:
  std::vector<unsigned> fwd_;
  std::vector<unsigned> inv_;
  /// Byte images of fwd_ and inv_ at width 64 (empty otherwise): 256
  /// entries per input byte.
  std::vector<std::uint64_t> fwd_image_;
  std::vector<std::uint64_t> inv_image_;
};

/// Destination of bit i under GIFT's PermBits at `width` 64 or 128: the
/// closed form above, whose block stride is width / 4.
[[nodiscard]] constexpr unsigned gift_p_bit(unsigned width,
                                            unsigned i) noexcept {
  return 4 * (i / 16) + (width / 4) * ((3 * ((i % 16) / 4) + i % 4) % 4) +
         i % 4;
}

/// GIFT's inverse PermBits at `Width` 64 or 128: entry j is the source
/// of bit j, filled in one pass over the closed form.
template <unsigned Width>
inline constexpr auto kGiftPInverse = [] {
  std::array<std::uint8_t, Width> inv{};
  for (unsigned i = 0; i < Width; ++i) {
    inv[gift_p_bit(Width, i)] = static_cast<std::uint8_t>(i);
  }
  return inv;
}();

/// Byte images of GIFT's PermBits at `Width` (of its inverse when
/// `inverse` is set), applied to each byte after the S-Box when
/// `substitute` is set: entry [b][v] is the image of the state holding v
/// in byte b.  `Word` is std::uint64_t at width 64, or a state type with
/// xor_bit (gift::State128).
template <unsigned Width, typename Word>
[[nodiscard]] constexpr std::array<std::array<Word, 256>, Width / 8>
gift_byte_images(bool substitute, bool inverse) {
  std::array<std::array<Word, 256>, Width / 8> images{};
  for (unsigned b = 0; b < Width / 8; ++b) {
    for (unsigned v = 0; v < 256; ++v) {
      const unsigned in =
          substitute ? 16u * kGiftSBox[v >> 4] | kGiftSBox[v & 0xF] : v;
      Word image{};
      for (unsigned k = 0; k < 8; ++k) {
        if (((in >> k) & 1u) == 0) continue;
        const unsigned bit = inverse ? kGiftPInverse<Width>[8 * b + k]
                                     : gift_p_bit(Width, 8 * b + k);
        if constexpr (std::is_integral_v<Word>) {
          image |= Word{1} << bit;
        } else {
          image.xor_bit(bit, 1);
        }
      }
      images[b][v] = image;
    }
  }
  return images;
}

/// The GIFT-64 PermBits permutation (width 64).
[[nodiscard]] const BitPermutation& gift64_permutation();

/// The GIFT-128 PermBits permutation (width 128).
[[nodiscard]] const BitPermutation& gift128_permutation();

/// Destination of bit i under PRESENT's pLayer: P(i) = 16·i mod 63 for
/// i < 63, and P(63) = 63.
[[nodiscard]] constexpr unsigned present_p_layer_bit(unsigned i) noexcept {
  return i == 63 ? 63 : (16 * i) % 63;
}

/// The PRESENT pLayer permutation (width 64): present_p_layer_bit.
[[nodiscard]] const BitPermutation& present_permutation();

}  // namespace grinch::gift
