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
// Applying a permutation to a whole state is table-driven.  A bit
// permutation only moves bits, so it is linear over GF(2): the image of a
// state is the OR of the images of its bytes.  The constructor expands
// the closed-form map into one byte image per input byte and direction —
// entry [b][v] is the OR of bit forward(8b + k) (resp. inverse(8b + k))
// over the set bits k of v — and never changes them afterwards.  A 64-bit
// state then takes 8 lookups and a 128-bit state 16, instead of one loop
// step per bit.  The images cost 16 KB per direction at width 64 and
// 64 KB at width 128; tests/gift/permutation_test.cpp checks them against
// the per-bit map on random states.
#pragma once

#include <cstdint>
#include <vector>

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

  /// Permutes a 128-bit state given as (hi, lo). Precondition: width()==128.
  void apply128(std::uint64_t& hi, std::uint64_t& lo) const noexcept;

  /// Inverse-permutes a 128-bit state. Precondition: width() == 128.
  void invert128(std::uint64_t& hi, std::uint64_t& lo) const noexcept;

 private:
  std::vector<unsigned> fwd_;
  std::vector<unsigned> inv_;
  /// Byte images of fwd_ and inv_: ⌈width/64⌉ words (lo first) per
  /// entry, 256 entries per input byte.
  std::vector<std::uint64_t> fwd_image_;
  std::vector<std::uint64_t> inv_image_;
};

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
