// The whole-block entry points of the GIFT reference ciphers, written
// once for both widths.
//
// Gift64 and Gift128 derive from GiftRounds<Gift, State> and provide the
// width facts these run on: kRounds, round_key (the round key of a key
// state), round_function and inverse_round_function.  Both widths share
// the key-state update.  gift64.cpp and gift128.cpp instantiate the
// members once per width.
#pragma once

#include <array>
#include <vector>

#include "common/key128.h"
#include "gift/key_schedule.h"

namespace grinch::gift {

template <typename Gift, typename State>
class GiftRounds {
 public:
  /// Encrypts one block under `key`.
  [[nodiscard]] static State encrypt(State plaintext, const Key128& key);

  /// Decrypts one block under `key`.
  [[nodiscard]] static State decrypt(State ciphertext, const Key128& key);

  /// Runs only the first `rounds` rounds (0 <= rounds <= kRounds).
  [[nodiscard]] static State encrypt_rounds(State plaintext,
                                            const Key128& key,
                                            unsigned rounds);

  /// All intermediate states: result[r] is the input of (0-based) round
  /// r, result[kRounds] is the ciphertext.  Size kRounds + 1.
  [[nodiscard]] static std::vector<State> round_states(State plaintext,
                                                       const Key128& key);
};

template <typename Gift, typename State>
State GiftRounds<Gift, State>::encrypt_rounds(State plaintext,
                                              const Key128& key,
                                              unsigned rounds) {
  State state = plaintext;
  Key128 k = key;
  for (unsigned r = 0; r < rounds; ++r) {
    state = Gift::round_function(state, Gift::round_key(k), r);
    k = update_key_state(k);
  }
  return state;
}

template <typename Gift, typename State>
State GiftRounds<Gift, State>::encrypt(State plaintext, const Key128& key) {
  return encrypt_rounds(plaintext, key, Gift::kRounds);
}

template <typename Gift, typename State>
State GiftRounds<Gift, State>::decrypt(State ciphertext, const Key128& key) {
  std::array<typename Gift::RoundKey, Gift::kRounds> rks;
  Key128 k = key;
  for (auto& rk : rks) {
    rk = Gift::round_key(k);
    k = update_key_state(k);
  }
  State state = ciphertext;
  for (unsigned r = Gift::kRounds; r-- > 0;) {
    state = Gift::inverse_round_function(state, rks[r], r);
  }
  return state;
}

template <typename Gift, typename State>
std::vector<State> GiftRounds<Gift, State>::round_states(State plaintext,
                                                         const Key128& key) {
  std::vector<State> states;
  states.reserve(Gift::kRounds + 1);
  State state = plaintext;
  Key128 k = key;
  states.push_back(state);
  for (unsigned r = 0; r < Gift::kRounds; ++r) {
    state = Gift::round_function(state, Gift::round_key(k), r);
    k = update_key_state(k);
    states.push_back(state);
  }
  return states;
}

}  // namespace grinch::gift
