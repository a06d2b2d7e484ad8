#include "gift/sbox.h"

#include <cassert>

namespace grinch::gift {

SBox::SBox(const std::array<std::uint8_t, 16>& table) : fwd_(table) {
  std::array<bool, 16> seen{};
  for (unsigned x = 0; x < 16; ++x) {
    const std::uint8_t y = table[x];
    assert(y < 16 && "S-Box entries must be 4-bit");
    assert(!seen[y] && "S-Box must be a permutation of 0..15");
    seen[y] = true;
    inv_[y] = static_cast<std::uint8_t>(x);
  }
  for (unsigned v = 0; v < 256; ++v) {
    fwd_byte_[v] =
        static_cast<std::uint8_t>((fwd_[v >> 4] << 4) | fwd_[v & 0xF]);
    inv_byte_[v] =
        static_cast<std::uint8_t>((inv_[v >> 4] << 4) | inv_[v & 0xF]);
  }
}

namespace {

std::uint64_t substitute_bytes(const std::array<std::uint8_t, 256>& table,
                               std::uint64_t state) noexcept {
  std::uint64_t out = 0;
  for (unsigned b = 0; b < 8; ++b) {
    out |= static_cast<std::uint64_t>(table[(state >> (8 * b)) & 0xFF])
           << (8 * b);
  }
  return out;
}

}  // namespace

std::uint64_t SBox::apply_state64(std::uint64_t state) const noexcept {
  return substitute_bytes(fwd_byte_, state);
}

std::uint64_t SBox::invert_state64(std::uint64_t state) const noexcept {
  return substitute_bytes(inv_byte_, state);
}

const SBox& gift_sbox() {
  static const SBox sbox{kGiftSBox};
  return sbox;
}

const SBox& present_sbox() {
  static const SBox sbox{kPresentSBox};
  return sbox;
}

}  // namespace grinch::gift
