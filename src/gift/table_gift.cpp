#include "gift/table_gift.h"

#include <array>
#include <cassert>

#include "gift/constants.h"
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

std::vector<RoundKey64> standard_round_keys(const Key128& key,
                                            unsigned rounds) {
  std::vector<RoundKey64> rks;
  rks.reserve(rounds);
  Key128 k = key;
  for (unsigned r = 0; r < rounds; ++r) {
    rks.push_back(extract_round_key64(k));
    k = update_key_state(k);
  }
  return rks;
}

TableGift64::TableGift64(const TableLayout& layout, RoundKeyProvider provider)
    : layout_(layout),
      standard_schedule_(!provider),
      provider_(provider ? std::move(provider) : standard_round_keys) {
  const SBox& sbox = gift_sbox();
  for (unsigned v = 0; v < 16; ++v) {
    sbox_table_[v] = static_cast<std::uint8_t>(sbox.apply(v));
    sbox_addr_[v] = layout_.sbox_row_addr(v);
  }
  const BitPermutation& perm = gift64_permutation();
  for (unsigned s = 0; s < 16; ++s) {
    for (unsigned v = 0; v < 16; ++v) {
      perm_table_[s][v] = perm.apply64(static_cast<std::uint64_t>(v) << (4 * s));
    }
  }
}

template <typename Sink>
std::uint64_t TableGift64::encrypt_impl(std::uint64_t plaintext,
                                        const Key128& key, unsigned rounds,
                                        Sink* sink) const {
  // Round keys: the standard schedule runs inline into a stack buffer —
  // no per-encryption heap allocation on the hot path.  Custom providers
  // (hardened UpdateKey) keep the vector-returning interface.
  std::array<RoundKey64, Gift64::kRounds> rk_buf;
  std::vector<RoundKey64> rk_vec;
  const RoundKey64* rks;
  if (standard_schedule_ && rounds <= Gift64::kRounds) {
    Key128 k = key;
    for (unsigned r = 0; r < rounds; ++r) {
      rk_buf[r] = extract_round_key64(k);
      k = update_key_state(k);
    }
    rks = rk_buf.data();
  } else {
    rk_vec = provider_(key, rounds);
    rks = rk_vec.data();
  }
  return encrypt_with_keys(plaintext, rks, 0, rounds, sink);
}

std::uint64_t TableGift64::encrypt_rounds(std::uint64_t plaintext,
                                          const Key128& key, unsigned rounds,
                                          TraceSink* sink) const {
  return encrypt_impl(plaintext, key, rounds, sink);
}

std::uint64_t TableGift64::encrypt_rounds(std::uint64_t plaintext,
                                          const Key128& key, unsigned rounds,
                                          VectorTraceSink* sink) const {
  // VectorTraceSink is final: the per-access callbacks resolve and inline
  // statically in this instantiation.
  return encrypt_impl(plaintext, key, rounds, sink);
}

std::uint64_t TableGift64::encrypt(std::uint64_t plaintext, const Key128& key,
                                   TraceSink* sink) const {
  return encrypt_rounds(plaintext, key, Gift64::kRounds, sink);
}

std::uint64_t TableGift64::encrypt(std::uint64_t plaintext, const Key128& key,
                                   VectorTraceSink* sink) const {
  return encrypt_rounds(plaintext, key, Gift64::kRounds, sink);
}

std::uint64_t TableGift64::encrypt_with_schedule(
    std::uint64_t plaintext, std::span<const RoundKey64> schedule,
    unsigned rounds, TraceSink* sink) const {
  assert(schedule.size() >= rounds);
  return encrypt_with_keys(plaintext, schedule.data(), 0, rounds, sink);
}

std::uint64_t TableGift64::encrypt_with_schedule(
    std::uint64_t plaintext, std::span<const RoundKey64> schedule,
    unsigned rounds, VectorTraceSink* sink) const {
  assert(schedule.size() >= rounds);
  return encrypt_with_keys(plaintext, schedule.data(), 0, rounds, sink);
}

}  // namespace grinch::gift
