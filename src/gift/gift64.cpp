#include "gift/gift64.h"

#include "common/bits.h"
#include "gift/constants.h"
#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::gift {

std::uint64_t Gift64::add_round_key(std::uint64_t state, const RoundKey64& rk) {
  return state ^ spread_to_nibbles(rk.v) ^ (spread_to_nibbles(rk.u) << 1);
}

std::uint64_t Gift64::round_function(std::uint64_t state, const RoundKey64& rk,
                                     unsigned round_index) {
  state = gift_sbox().apply_state64(state);
  state = gift64_permutation().apply64(state);
  state = add_round_key(state, rk);
  state = add_constant64(state, round_constant(round_index));
  return state;
}

std::uint64_t Gift64::inverse_round_function(std::uint64_t state,
                                             const RoundKey64& rk,
                                             unsigned round_index) {
  state = add_constant64(state, round_constant(round_index));
  state = add_round_key(state, rk);
  state = gift64_permutation().invert64(state);
  state = gift_sbox().invert_state64(state);
  return state;
}

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
  const KeySchedule schedule{key, kRounds};
  std::uint64_t state = ciphertext;
  for (unsigned r = kRounds; r-- > 0;) {
    state = inverse_round_function(state, schedule.round_key64(r), r);
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
