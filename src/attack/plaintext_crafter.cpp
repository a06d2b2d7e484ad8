#include "attack/plaintext_crafter.h"

#include <cassert>

#include "gift/gift64.h"

namespace grinch::attack {

std::uint64_t PlaintextCrafter::craft_state(const TargetBits& target) {
  // One draw per segment from a register copy of the generator, written
  // back once.  A list pick is uniform(8), which on a power-of-two bound
  // is the draw's low 3 bits, and a free segment is its low nibble, so
  // the stream is the one uniform() and nibble() would consume.
  Xoshiro256 rng = *rng_;
  std::uint64_t state = 0;
  for (unsigned i = 0; i < 16; ++i) {
    const std::uint64_t w = rng.next();
    const std::uint64_t value = i == target.seg_a   ? target.list_a[w & 7]
                                : i == target.seg_b ? target.list_b[w & 7]
                                                    : w & 0xF;
    state |= value << (4 * i);
  }
  *rng_ = rng;
  return state;
}

std::uint64_t invert_to_plaintext(
    std::uint64_t round_input, std::span<const gift::RoundKey64> round_keys,
    unsigned stage) {
  assert(round_keys.size() >= stage);
  std::uint64_t state = round_input;
  for (unsigned r = stage; r-- > 0;) {
    state = gift::Gift64::inverse_round_function(state, round_keys[r], r);
  }
  return state;
}

std::uint64_t PlaintextCrafter::craft_plaintext(
    const TargetBits& target,
    std::span<const gift::RoundKey64> known_round_keys, unsigned stage) {
  const std::uint64_t state = craft_state(target);
  return invert_to_plaintext(state, known_round_keys, stage);
}

}  // namespace grinch::attack
