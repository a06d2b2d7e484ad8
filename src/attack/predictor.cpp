#include "attack/predictor.h"

#include <cassert>

#include "common/bits.h"
#include "gift/constants.h"
#include "gift/gift64.h"

namespace grinch::attack {

unsigned constant_nibble_contribution(unsigned round_index, unsigned segment) {
  const std::uint8_t c = gift::round_constant(round_index);
  unsigned contribution = 0;
  // c_t -> state bit 4t+3 for t = 0..5; the fixed '1' -> bit 63 (seg 15).
  if (segment < 6 && ((c >> segment) & 1u)) contribution = 0x8;
  if (segment == 15) contribution ^= 0x8;
  return contribution;
}

std::uint64_t pre_key_state(std::uint64_t plaintext,
                            std::span<const gift::RoundKey64> known_round_keys,
                            unsigned stage) {
  assert(known_round_keys.size() >= stage);
  // Advance through the fully-known rounds 0 .. stage-1.
  std::uint64_t state = plaintext;
  for (unsigned r = 0; r < stage; ++r) {
    state = gift::Gift64::round_function(state, known_round_keys[r], r);
  }
  // A zero round key makes AddRoundKey the identity, so a full round with
  // it yields exactly the pre-key state (constants included).
  return gift::Gift64::round_function(state, gift::RoundKey64{}, stage);
}

std::array<unsigned, 16> pre_key_nibbles(
    std::uint64_t plaintext, std::span<const gift::RoundKey64> known_round_keys,
    unsigned stage) {
  const std::uint64_t state = pre_key_state(plaintext, known_round_keys, stage);
  std::array<unsigned, 16> out{};
  for (unsigned s = 0; s < 16; ++s) out[s] = nibble(state, s);
  return out;
}

}  // namespace grinch::attack
