#include "gift/gift64.h"

#include "gift/permutation.h"

namespace grinch::gift {

namespace detail {

constexpr ByteImages64 kGift64RoundImages =
    gift_byte_images<64, std::uint64_t>(true, false);
constexpr ByteImages64 kGift64InvPermImages =
    gift_byte_images<64, std::uint64_t>(false, true);

}  // namespace detail

std::uint64_t Gift64::encrypt_rounds(std::uint64_t plaintext,
                                     const Key128& key, unsigned rounds) {
  std::uint64_t state = plaintext;
  Key128 k = key;
  for (unsigned r = 0; r < rounds; ++r) {
    state = round_function(state, extract_round_key64(k), r);
    k = update_key_state(k);
  }
  return state;
}

std::uint64_t Gift64::encrypt(std::uint64_t plaintext, const Key128& key) {
  return encrypt_rounds(plaintext, key, kRounds);
}

std::uint64_t Gift64::decrypt(std::uint64_t ciphertext, const Key128& key) {
  std::array<RoundKey64, kRounds> rks;
  Key128 k = key;
  for (RoundKey64& rk : rks) {
    rk = extract_round_key64(k);
    k = update_key_state(k);
  }
  std::uint64_t state = ciphertext;
  for (unsigned r = kRounds; r-- > 0;) {
    state = inverse_round_function(state, rks[r], r);
  }
  return state;
}

std::vector<std::uint64_t> Gift64::round_states(std::uint64_t plaintext,
                                                const Key128& key) {
  std::vector<std::uint64_t> states;
  states.reserve(kRounds + 1);
  std::uint64_t state = plaintext;
  Key128 k = key;
  states.push_back(state);
  for (unsigned r = 0; r < kRounds; ++r) {
    state = round_function(state, extract_round_key64(k), r);
    k = update_key_state(k);
    states.push_back(state);
  }
  return states;
}

}  // namespace grinch::gift
