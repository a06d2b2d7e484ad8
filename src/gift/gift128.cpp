#include "gift/gift128.h"

#include "gift/permutation.h"

namespace grinch::gift {

namespace detail {

constexpr ByteImages128 kGift128RoundImages =
    gift_byte_images<128, State128>(true, false);
constexpr ByteImages128 kGift128InvPermImages =
    gift_byte_images<128, State128>(false, true);

}  // namespace detail

State128 Gift128::encrypt_rounds(State128 plaintext, const Key128& key,
                                 unsigned rounds) {
  State128 state = plaintext;
  Key128 k = key;
  for (unsigned r = 0; r < rounds; ++r) {
    state = round_function(state, extract_round_key128(k), r);
    k = update_key_state(k);
  }
  return state;
}

State128 Gift128::encrypt(State128 plaintext, const Key128& key) {
  return encrypt_rounds(plaintext, key, kRounds);
}

State128 Gift128::decrypt(State128 ciphertext, const Key128& key) {
  std::array<RoundKey128, kRounds> rks;
  Key128 k = key;
  for (RoundKey128& rk : rks) {
    rk = extract_round_key128(k);
    k = update_key_state(k);
  }
  State128 state = ciphertext;
  for (unsigned r = kRounds; r-- > 0;) {
    state = inverse_round_function(state, rks[r], r);
  }
  return state;
}

std::vector<State128> Gift128::round_states(State128 plaintext,
                                            const Key128& key) {
  std::vector<State128> states;
  states.reserve(kRounds + 1);
  State128 state = plaintext;
  Key128 k = key;
  states.push_back(state);
  for (unsigned r = 0; r < kRounds; ++r) {
    state = round_function(state, extract_round_key128(k), r);
    k = update_key_state(k);
    states.push_back(state);
  }
  return states;
}

}  // namespace grinch::gift
