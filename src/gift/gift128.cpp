#include "gift/gift128.h"

#include "gift/permutation.h"

namespace grinch::gift {

namespace detail {

constexpr ByteImages128 kGift128RoundImages =
    gift_byte_images<128, State128>(true, false);
constexpr ByteImages128 kGift128InvPermImages =
    gift_byte_images<128, State128>(false, true);

}  // namespace detail

template class GiftRounds<Gift128, State128>;

}  // namespace grinch::gift
