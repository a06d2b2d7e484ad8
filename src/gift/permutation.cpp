#include "gift/permutation.h"

#include <cassert>
#include <cstddef>
#include <utility>

namespace grinch::gift {
namespace {

std::vector<unsigned> gift_map(unsigned width) {
  // Shared closed form; the block stride (16 vs 32) is width/4.
  const unsigned stride = width / 4;
  std::vector<unsigned> map(width);
  for (unsigned i = 0; i < width; ++i) {
    const unsigned quad = i / 16;          // 4-segment group
    const unsigned seg_in_quad = (i % 16) / 4;
    const unsigned bit_in_seg = i % 4;
    map[i] = 4 * quad + stride * ((3 * seg_in_quad + bit_in_seg) % 4) +
             bit_in_seg;
  }
  return map;
}

std::vector<unsigned> present_map() {
  std::vector<unsigned> map(64);
  for (unsigned i = 0; i < 64; ++i) map[i] = present_p_layer_bit(i);
  return map;
}

/// Byte images of `map` (see the header): entry (256·b + v) holds, in
/// ⌈width/64⌉ words, the image of value v in input byte b.
std::vector<std::uint64_t> byte_images(const std::vector<unsigned>& map) {
  const auto width = static_cast<unsigned>(map.size());
  const unsigned words = (width + 63) / 64;
  const unsigned bytes = (width + 7) / 8;
  std::vector<std::uint64_t> image(std::size_t{256} * bytes * words, 0);
  for (unsigned b = 0; b < bytes; ++b) {
    for (unsigned v = 0; v < 256; ++v) {
      std::uint64_t* entry = &image[(256 * b + v) * words];
      for (unsigned k = 0; k < 8 && 8 * b + k < width; ++k) {
        if (((v >> k) & 1u) == 0) continue;
        const unsigned j = map[8 * b + k];
        entry[j / 64] |= std::uint64_t{1} << (j % 64);
      }
    }
  }
  return image;
}

std::uint64_t permute64(const std::uint64_t* image,
                        std::uint64_t state) noexcept {
  std::uint64_t out = 0;
  for (unsigned b = 0; b < 8; ++b) {
    out |= image[256 * b + ((state >> (8 * b)) & 0xFF)];
  }
  return out;
}

void permute128(const std::uint64_t* image, std::uint64_t& hi,
                std::uint64_t& lo) noexcept {
  std::uint64_t nh = 0, nl = 0;
  for (unsigned b = 0; b < 16; ++b) {
    const std::uint64_t word = b < 8 ? lo : hi;
    const std::uint64_t* entry =
        &image[2 * (256 * b + ((word >> (8 * (b % 8))) & 0xFF))];
    nl |= entry[0];
    nh |= entry[1];
  }
  hi = nh;
  lo = nl;
}

}  // namespace

BitPermutation::BitPermutation(std::vector<unsigned> map)
    : fwd_(std::move(map)) {
  assert(fwd_.size() <= 128);
  inv_.assign(fwd_.size(), ~0u);
  for (unsigned i = 0; i < fwd_.size(); ++i) {
    const unsigned j = fwd_[i];
    assert(j < fwd_.size() && "permutation target out of range");
    assert(inv_[j] == ~0u && "permutation must be bijective");
    inv_[j] = i;
  }
  fwd_image_ = byte_images(fwd_);
  inv_image_ = byte_images(inv_);
}

std::uint64_t BitPermutation::apply64(std::uint64_t state) const noexcept {
  assert(width() == 64);
  return permute64(fwd_image_.data(), state);
}

std::uint64_t BitPermutation::invert64(std::uint64_t state) const noexcept {
  assert(width() == 64);
  return permute64(inv_image_.data(), state);
}

void BitPermutation::apply128(std::uint64_t& hi, std::uint64_t& lo)
    const noexcept {
  assert(width() == 128);
  permute128(fwd_image_.data(), hi, lo);
}

void BitPermutation::invert128(std::uint64_t& hi, std::uint64_t& lo)
    const noexcept {
  assert(width() == 128);
  permute128(inv_image_.data(), hi, lo);
}

const BitPermutation& gift64_permutation() {
  static const BitPermutation perm{gift_map(64)};
  return perm;
}

const BitPermutation& gift128_permutation() {
  static const BitPermutation perm{gift_map(128)};
  return perm;
}

const BitPermutation& present_permutation() {
  static const BitPermutation perm{present_map()};
  return perm;
}

}  // namespace grinch::gift
