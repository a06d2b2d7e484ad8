#include "gift/table_gift.h"

#include <type_traits>

#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::gift {

void VectorTraceSink::on_round_begin(unsigned round) {
  (void)round;
  round_begin_.push_back(accesses_.size());
}

void VectorTraceSink::on_access(const TableAccess& access) {
  accesses_.push_back(access);
}

void VectorTraceSink::on_round_end(unsigned round) { (void)round; }

void VectorTraceSink::clear() {
  accesses_.clear();
  round_begin_.clear();
}

template <typename Gift>
TableGift<Gift>::TableGift(const TableLayout& layout) : layout_(layout) {
  for (unsigned v = 0; v < 16; ++v) {
    sbox_table_[v] = kGiftSBox[v];
    sbox_addr_[v] = layout_.sbox_row_addr(v);
  }
  for (unsigned s = 0; s < Gift::kSegments; ++s) {
    for (unsigned v = 0; v < 16; ++v) {
      Block image{};
      for (unsigned k = 0; k < 4; ++k) {
        if (((v >> k) & 1u) == 0) continue;
        const unsigned bit = gift_p_bit(4 * Gift::kSegments, 4 * s + k);
        if constexpr (std::is_integral_v<Block>) {
          image |= Block{1} << bit;
        } else {
          image.xor_bit(bit, 1);
        }
      }
      perm_table_[s][v] = image;
    }
  }
}

template <typename Gift>
typename TableGift<Gift>::Schedule TableGift<Gift>::make_schedule(
    const Key128& key, unsigned rounds) {
  Schedule rks;
  rks.reserve(rounds);
  Key128 k = key;
  for (unsigned r = 0; r < rounds; ++r) {
    rks.push_back(Gift::round_key(k));
    k = update_key_state(k);
  }
  return rks;
}

template class TableGift<Gift64>;
template class TableGift<Gift128>;
// The platforms' VectorTraceSink loops, compiled where the sink's
// callbacks are defined so they inline.
template std::uint64_t TableGift64::encrypt_with_schedule(
    std::uint64_t, std::span<const RoundKey64>, unsigned,
    VectorTraceSink*) const;
template State128 TableGift128::encrypt_with_schedule(
    State128, std::span<const RoundKey128>, unsigned, VectorTraceSink*) const;

}  // namespace grinch::gift
