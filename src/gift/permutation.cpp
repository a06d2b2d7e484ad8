#include "gift/permutation.h"

#include <cassert>
#include <cstddef>
#include <utility>

namespace grinch::gift {
namespace {

std::vector<unsigned> gift_map(unsigned width) {
  std::vector<unsigned> map(width);
  for (unsigned i = 0; i < width; ++i) map[i] = gift_p_bit(width, i);
  return map;
}

std::vector<unsigned> present_map() {
  std::vector<unsigned> map(64);
  for (unsigned i = 0; i < 64; ++i) map[i] = present_p_layer_bit(i);
  return map;
}

/// Byte images of a width-64 `map` (see the header): entry (256·b + v)
/// is the image of value v in input byte b.
std::vector<std::uint64_t> byte_images(const std::vector<unsigned>& map) {
  std::vector<std::uint64_t> image(std::size_t{256} * 8, 0);
  for (unsigned b = 0; b < 8; ++b) {
    for (unsigned v = 0; v < 256; ++v) {
      for (unsigned k = 0; k < 8; ++k) {
        if (((v >> k) & 1u) != 0) {
          image[256 * b + v] |= std::uint64_t{1} << map[8 * b + k];
        }
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
  if (fwd_.size() == 64) {
    fwd_image_ = byte_images(fwd_);
    inv_image_ = byte_images(inv_);
  }
}

std::uint64_t BitPermutation::apply64(std::uint64_t state) const noexcept {
  assert(width() == 64);
  return permute64(fwd_image_.data(), state);
}

std::uint64_t BitPermutation::invert64(std::uint64_t state) const noexcept {
  assert(width() == 64);
  return permute64(inv_image_.data(), state);
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
