#include "gift/table_gift128.h"

#include <array>
#include <cassert>

#include "gift/constants.h"
#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::gift {

TableGift128::TableGift128(const TableLayout& layout) : layout_(layout) {
  const SBox& sbox = gift_sbox();
  for (unsigned v = 0; v < 16; ++v) {
    sbox_table_[v] = static_cast<std::uint8_t>(sbox.apply(v));
    sbox_addr_[v] = layout_.sbox_row_addr(v);
  }
  for (unsigned s = 0; s < 32; ++s) {
    for (unsigned v = 0; v < 16; ++v) {
      State128 image;
      for (unsigned k = 0; k < 4; ++k) {
        image.xor_bit(gift_p_bit(128, 4 * s + k), (v >> k) & 1u);
      }
      perm_hi_[s][v] = image.hi;
      perm_lo_[s][v] = image.lo;
    }
  }
}

TableGift128::Schedule TableGift128::make_schedule(const Key128& key,
                                                   unsigned rounds) const {
  Schedule rks;
  rks.reserve(rounds);
  Key128 k = key;
  for (unsigned r = 0; r < rounds; ++r) {
    rks.push_back(extract_round_key128(k));
    k = update_key_state(k);
  }
  return rks;
}

State128 TableGift128::encrypt_rounds(State128 plaintext, const Key128& key,
                                      unsigned rounds, TraceSink* sink) const {
  // Derive the keys into a stack buffer (no heap) and share the round
  // loop with the precomputed-schedule path.
  if (rounds <= Gift128::kRounds) {
    std::array<RoundKey128, Gift128::kRounds> rks;
    Key128 k = key;
    for (unsigned r = 0; r < rounds; ++r) {
      rks[r] = extract_round_key128(k);
      k = update_key_state(k);
    }
    return encrypt_with_keys(plaintext, rks.data(), 0, rounds, sink);
  }
  const Schedule rks = make_schedule(key, rounds);
  return encrypt_with_keys(plaintext, rks.data(), 0, rounds, sink);
}

State128 TableGift128::encrypt_with_schedule(
    State128 plaintext, std::span<const RoundKey128> schedule, unsigned rounds,
    TraceSink* sink) const {
  assert(schedule.size() >= rounds);
  return encrypt_with_keys(plaintext, schedule.data(), 0, rounds, sink);
}

State128 TableGift128::encrypt(State128 plaintext, const Key128& key,
                               TraceSink* sink) const {
  return encrypt_rounds(plaintext, key, Gift128::kRounds, sink);
}

}  // namespace grinch::gift
