#include "countermeasures/hardened_schedule.h"

#include "common/bits.h"
#include "gift/gift64.h"
#include "gift/sbox.h"

namespace grinch::cm {

std::uint32_t whitening_digest(const Key128& state) {
  // Mix the unused words k7..k4 non-linearly: nibble-wise GIFT S-Box over
  // (k7||k6) XOR rot(k5||k4), then a final rotation to spread nibbles.
  const std::uint32_t hi =
      (static_cast<std::uint32_t>(state.word16(7)) << 16) | state.word16(6);
  const std::uint32_t lo =
      (static_cast<std::uint32_t>(state.word16(5)) << 16) | state.word16(4);
  std::uint32_t x = hi ^ rotr(lo, 7, 32);
  std::uint32_t y = 0;
  for (unsigned i = 0; i < 8; ++i) {
    y |= static_cast<std::uint32_t>(
             gift::gift_sbox().apply((x >> (4 * i)) & 0xF))
         << (4 * i);
  }
  return rotr(y, 13, 32);
}

std::vector<gift::RoundKey64> hardened_round_keys(const Key128& key,
                                                  unsigned rounds) {
  std::vector<gift::RoundKey64> rks;
  rks.reserve(rounds);
  Key128 k = key;
  for (unsigned r = 0; r < rounds; ++r) {
    gift::RoundKey64 rk = gift::extract_round_key64(k);
    const std::uint32_t w = whitening_digest(k);
    rk.u ^= static_cast<std::uint16_t>(w >> 16);
    rk.v ^= static_cast<std::uint16_t>(w & 0xFFFF);
    rks.push_back(rk);
    k = gift::update_key_state(k);
  }
  return rks;
}

std::uint64_t HardenedGift64::encrypt(std::uint64_t plaintext,
                                      const Key128& key) {
  const auto rks = hardened_round_keys(key, gift::Gift64::kRounds);
  std::uint64_t state = plaintext;
  for (unsigned r = 0; r < gift::Gift64::kRounds; ++r) {
    state = gift::Gift64::round_function(state, rks[r], r);
  }
  return state;
}

std::uint64_t HardenedGift64::decrypt(std::uint64_t ciphertext,
                                      const Key128& key) {
  const auto rks = hardened_round_keys(key, gift::Gift64::kRounds);
  std::uint64_t state = ciphertext;
  for (unsigned r = gift::Gift64::kRounds; r-- > 0;) {
    state = gift::Gift64::inverse_round_function(state, rks[r], r);
  }
  return state;
}

}  // namespace grinch::cm
