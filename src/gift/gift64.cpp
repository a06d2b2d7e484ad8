#include "gift/gift64.h"

#include "gift/permutation.h"

namespace grinch::gift {

namespace detail {

constexpr ByteImages64 kGift64RoundImages =
    gift_byte_images<64, std::uint64_t>(true, false);
constexpr ByteImages64 kGift64InvPermImages =
    gift_byte_images<64, std::uint64_t>(false, true);

}  // namespace detail

template class GiftRounds<Gift64, std::uint64_t>;

}  // namespace grinch::gift
