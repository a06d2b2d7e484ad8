#include "target/gift128_recovery.h"

#include <cassert>

namespace grinch::target {

std::array<unsigned, 32> pre_key_nibbles128(
    gift::State128 plaintext,
    std::span<const gift::RoundKey128> known_round_keys, unsigned stage) {
  assert(known_round_keys.size() >= stage);
  gift::State128 state = plaintext;
  for (unsigned r = 0; r < stage; ++r) {
    state = gift::Gift128::round_function(state, known_round_keys[r], r);
  }
  // A zero round key makes AddRoundKey the identity, so a full round with
  // it yields exactly the pre-key state (constants included).
  state = gift::Gift128::round_function(state, gift::RoundKey128{}, stage);
  std::array<unsigned, 32> out{};
  for (unsigned s = 0; s < 32; ++s) out[s] = state.nibble(s);
  return out;
}

gift::State128 PlaintextCrafter128::craft_state(const TargetBits128& target) {
  // One draw per segment from a register copy of the generator, written
  // back once: a list pick is uniform(8), the draw's low 3 bits on that
  // power-of-two bound, and a free segment is the draw's low nibble.
  Xoshiro256 rng = *rng_;
  gift::State128 state{};
  for (unsigned s = 0; s < 32; ++s) {
    const std::uint64_t w = rng.next();
    const std::uint64_t value = s == target.seg_a   ? target.list_a[w & 7]
                                : s == target.seg_b ? target.list_b[w & 7]
                                                    : w & 0xF;
    if (s < 16)
      state.lo |= value << (4 * s);
    else
      state.hi |= value << (4 * (s - 16));
  }
  *rng_ = rng;
  return state;
}

gift::State128 PlaintextCrafter128::craft_plaintext(
    const TargetBits128& target,
    std::span<const gift::RoundKey128> known_round_keys, unsigned stage) {
  gift::State128 state = craft_state(target);
  for (unsigned r = stage; r-- > 0;) {
    state = gift::Gift128::inverse_round_function(state, known_round_keys[r], r);
  }
  return state;
}

Key128 assemble_master_key128(std::span<const gift::RoundKey128> round_keys) {
  assert(round_keys.size() == 2 &&
         "GIFT-128 uses 64 key bits per round; 2 rounds cover the key");
  const gift::KeyBitOrigins origins{2};
  Key128 key;
  for (unsigned a = 0; a < 2; ++a) {
    for (unsigned i = 0; i < 32; ++i) {
      key = key.with_bit(origins.u128_origin(a, i),
                         (round_keys[a].u >> i) & 1u);
      key = key.with_bit(origins.v128_origin(a, i),
                         (round_keys[a].v >> i) & 1u);
    }
  }
  return key;
}

void Gift128Recovery::finalize(RecoveryResult<Gift128Recovery>& result,
                               ObservationSource<gift::State128>& source,
                               Xoshiro256& rng, gift::State128 /*last_pt*/,
                               std::uint64_t /*last_ct*/) {
  result.recovered_key = assemble_master_key128(result.stage_keys);
  // Verify against one more observed encryption.
  const gift::State128 check_pt{rng.block64(), rng.block64()};
  (void)source.observe(check_pt, 0);
  ++result.total_encryptions;
  result.key_verified =
      gift::Gift128::encrypt(check_pt, result.recovered_key) ==
      source.last_ciphertext();
  result.success = result.key_verified;
}

}  // namespace grinch::target
