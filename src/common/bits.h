// Bit-manipulation helpers shared across the GRINCH libraries.
//
// GIFT and PRESENT are bit-sliced SPN ciphers: their specifications are
// written in terms of individual state-bit positions, 4-bit segments
// ("nibbles") and rotations of 16/32-bit key words.  These helpers give
// those operations names so the cipher code reads like the spec.
#pragma once

#include <cstdint>
#include <type_traits>

namespace grinch {

/// Returns bit `pos` (0 = LSB) of `v` as 0 or 1.
template <typename T>
constexpr unsigned bit(T v, unsigned pos) noexcept {
  static_assert(std::is_unsigned_v<T>, "bit() requires an unsigned type");
  return static_cast<unsigned>((v >> pos) & T{1});
}

/// Returns `v` with bit `pos` forced to `value` (0 or 1).
template <typename T>
constexpr T with_bit(T v, unsigned pos, unsigned value) noexcept {
  static_assert(std::is_unsigned_v<T>, "with_bit() requires an unsigned type");
  const T mask = T{1} << pos;
  return value ? (v | mask) : (v & static_cast<T>(~mask));
}

/// Returns `v` with bit `pos` flipped.
template <typename T>
constexpr T flip_bit(T v, unsigned pos) noexcept {
  static_assert(std::is_unsigned_v<T>, "flip_bit() requires an unsigned type");
  return v ^ (T{1} << pos);
}

/// Right-rotate of an `n`-bit value stored in the low bits of `v`.
/// Used by the GIFT key schedule (16-bit words rotated by 2 and 12).
constexpr std::uint32_t rotr(std::uint32_t v, unsigned r, unsigned n) noexcept {
  const std::uint32_t mask = (n >= 32) ? 0xFFFFFFFFu : ((1u << n) - 1u);
  v &= mask;
  r %= n;
  if (r == 0) return v;
  return ((v >> r) | (v << (n - r))) & mask;
}

/// Left-rotate of an `n`-bit value stored in the low bits of `v`.
constexpr std::uint32_t rotl(std::uint32_t v, unsigned r, unsigned n) noexcept {
  r %= n;
  return rotr(v, n - r == n ? 0 : n - r, n);
}

/// Right-rotate a full 64-bit word.
constexpr std::uint64_t rotr64(std::uint64_t v, unsigned r) noexcept {
  r &= 63u;
  if (r == 0) return v;
  return (v >> r) | (v << (64u - r));
}

/// Extracts 4-bit segment `i` (segment 0 = bits 3..0) of a 64-bit state.
constexpr unsigned nibble(std::uint64_t state, unsigned i) noexcept {
  return static_cast<unsigned>((state >> (4u * i)) & 0xFu);
}

/// Returns `state` with 4-bit segment `i` replaced by `value & 0xF`.
constexpr std::uint64_t with_nibble(std::uint64_t state, unsigned i,
                                    unsigned value) noexcept {
  const unsigned sh = 4u * i;
  const std::uint64_t cleared = state & ~(std::uint64_t{0xF} << sh);
  return cleared | (static_cast<std::uint64_t>(value & 0xFu) << sh);
}

/// Moves bit i of a 16-bit value to bit 4i (i = 0..15): the mask-and-shift
/// spread that places one round-key bit in every 4-bit segment.
constexpr std::uint64_t spread_to_nibbles(std::uint16_t v) noexcept {
  std::uint64_t x = v;
  x = (x | (x << 24)) & 0x000000FF000000FFull;
  x = (x | (x << 12)) & 0x000F000F000F000Full;
  x = (x | (x << 6)) & 0x0303030303030303ull;
  x = (x | (x << 3)) & 0x1111111111111111ull;
  return x;
}

/// Number of set bits.
template <typename T>
constexpr unsigned popcount(T v) noexcept {
  static_assert(std::is_unsigned_v<T>, "popcount() requires an unsigned type");
  unsigned c = 0;
  while (v) {
    v &= static_cast<T>(v - 1);
    ++c;
  }
  return c;
}

/// True when `v` is a power of two (and non-zero).
constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// log2 of a power of two. Precondition: is_pow2(v).
constexpr unsigned log2_pow2(std::uint64_t v) noexcept {
  unsigned l = 0;
  while (v > 1) {
    v >>= 1;
    ++l;
  }
  return l;
}

}  // namespace grinch
