#include "present/table_present.h"

#include "present/present.h"
#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::present {

TablePresent80::Schedule TablePresent80::make_schedule(const Key128& key) {
  const RoundKeys rks = Present80::round_keys(key);
  return Schedule(rks.begin(), rks.end());
}

TablePresent80::TablePresent80(const target::TableLayout& layout)
    : layout_(layout) {
  for (unsigned v = 0; v < 16; ++v) {
    sbox_table_[v] = static_cast<std::uint8_t>(gift::present_sbox().apply(v));
    sbox_addr_[v] = layout_.sbox_row_addr(v);
  }
  for (unsigned s = 0; s < 16; ++s)
    for (unsigned v = 0; v < 16; ++v)
      perm_table_[s][v] = gift::present_permutation().apply64(
          static_cast<std::uint64_t>(v) << (4 * s));
}

}  // namespace grinch::present
