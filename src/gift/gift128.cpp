#include "gift/gift128.h"

#include "common/bits.h"
#include "gift/constants.h"
#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::gift {
namespace {

State128 sub_cells(State128 s) {
  s.lo = gift_sbox().apply_state64(s.lo);
  s.hi = gift_sbox().apply_state64(s.hi);
  return s;
}

State128 inv_sub_cells(State128 s) {
  s.lo = gift_sbox().invert_state64(s.lo);
  s.hi = gift_sbox().invert_state64(s.hi);
  return s;
}

State128 add_constant(State128 s, std::uint8_t c) {
  s.hi ^= std::uint64_t{1} << 63;  // state bit 127
  s.lo ^= static_cast<std::uint64_t>(c & 1u) << 3;
  s.lo ^= static_cast<std::uint64_t>((c >> 1) & 1u) << 7;
  s.lo ^= static_cast<std::uint64_t>((c >> 2) & 1u) << 11;
  s.lo ^= static_cast<std::uint64_t>((c >> 3) & 1u) << 15;
  s.lo ^= static_cast<std::uint64_t>((c >> 4) & 1u) << 19;
  s.lo ^= static_cast<std::uint64_t>((c >> 5) & 1u) << 23;
  return s;
}

}  // namespace

State128 Gift128::add_round_key(State128 state, const RoundKey128& rk) {
  const auto half = [](std::uint32_t word, unsigned shift) {
    return spread_to_nibbles(static_cast<std::uint16_t>(word >> shift));
  };
  state.lo ^= (half(rk.v, 0) << 1) ^ (half(rk.u, 0) << 2);
  state.hi ^= (half(rk.v, 16) << 1) ^ (half(rk.u, 16) << 2);
  return state;
}

State128 Gift128::round_function(State128 state, const RoundKey128& rk,
                                 unsigned round_index) {
  state = sub_cells(state);
  gift128_permutation().apply128(state.hi, state.lo);
  state = add_round_key(state, rk);
  state = add_constant(state, round_constant(round_index));
  return state;
}

State128 Gift128::inverse_round_function(State128 state, const RoundKey128& rk,
                                         unsigned round_index) {
  state = add_constant(state, round_constant(round_index));
  state = add_round_key(state, rk);
  gift128_permutation().invert128(state.hi, state.lo);
  state = inv_sub_cells(state);
  return state;
}

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
  const KeySchedule schedule{key, kRounds};
  State128 state = ciphertext;
  for (unsigned r = kRounds; r-- > 0;) {
    state = inverse_round_function(state, schedule.round_key128(r), r);
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
