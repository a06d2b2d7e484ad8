// Algorithm 2 + Step 5: crafted plaintexts must pin the target segment's
// key-facing pre-key bits to 1 at any attack stage.
#include "attack/plaintext_crafter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "attack/predictor.h"
#include "common/bits.h"
#include "common/rng.h"
#include "gift/gift64.h"
#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::attack {
namespace {

TEST(Crafter, StateHasListValuesInSourceSegments) {
  Xoshiro256 rng{1};
  PlaintextCrafter crafter{rng};
  const TargetBits t = set_target_bits(5);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t state = crafter.craft_state(t);
    const unsigned va = nibble(state, t.seg_a);
    const unsigned vb = nibble(state, t.seg_b);
    EXPECT_NE(std::find(t.list_a.begin(), t.list_a.end(), va), t.list_a.end());
    EXPECT_NE(std::find(t.list_b.begin(), t.list_b.end(), vb), t.list_b.end());
  }
}

TEST(Crafter, StageZeroPlaintextPinsPreKeyBits) {
  Xoshiro256 rng{2};
  PlaintextCrafter crafter{rng};
  for (unsigned s = 0; s < 16; ++s) {
    const TargetBits t = set_target_bits(s);
    const std::uint64_t pt = crafter.craft_plaintext(t, {}, 0);
    const auto nibbles = pre_key_nibbles(pt, {}, 0);
    EXPECT_EQ(nibbles[s] & 0x3, 0x3u) << "segment " << s;
  }
}

TEST(Crafter, DeepStagePlaintextPinsPreKeyBits) {
  // Step 5: with the earlier round keys known, crafting still pins the
  // monitored segment at stages 1..3.
  Xoshiro256 rng{3};
  PlaintextCrafter crafter{rng};
  const Key128 key = rng.key128();
  const gift::KeySchedule sched{key, 4};
  std::vector<gift::RoundKey64> keys;
  for (unsigned r = 0; r < 4; ++r) keys.push_back(sched.round_key64(r));

  for (unsigned stage = 1; stage < 4; ++stage) {
    for (unsigned s = 0; s < 16; s += 5) {
      const TargetBits t = set_target_bits(s);
      const std::uint64_t pt = crafter.craft_plaintext(t, keys, stage);
      const auto nibbles = pre_key_nibbles(pt, keys, stage);
      EXPECT_EQ(nibbles[s] & 0x3, 0x3u) << "stage " << stage << " seg " << s;
    }
  }
}

TEST(Crafter, InversionRoundTripsThroughTheCipher) {
  Xoshiro256 rng{4};
  const Key128 key = rng.key128();
  const gift::KeySchedule sched{key, 4};
  std::vector<gift::RoundKey64> keys;
  for (unsigned r = 0; r < 4; ++r) keys.push_back(sched.round_key64(r));

  for (unsigned stage = 0; stage <= 3; ++stage) {
    const std::uint64_t desired = rng.block64();
    const std::uint64_t pt = invert_to_plaintext(desired, keys, stage);
    EXPECT_EQ(gift::Gift64::encrypt_rounds(pt, key, stage), desired)
        << "stage " << stage;
  }
}

TEST(Crafter, CraftedPlaintextsVary) {
  // The non-pinned segments are randomised — consecutive crafts must not
  // repeat (they drive the candidate elimination diversity).
  Xoshiro256 rng{5};
  PlaintextCrafter crafter{rng};
  const TargetBits t = set_target_bits(0);
  const std::uint64_t a = crafter.craft_plaintext(t, {}, 0);
  const std::uint64_t b = crafter.craft_plaintext(t, {}, 0);
  EXPECT_NE(a, b);
}

TEST(Crafter, PinnedIndexHasKnownLowBitsUnderTrueKey) {
  // The actual monitored S-Box index under the true key has low bits
  // (1^v, 1^u): the paper's Key[i] <- NOT Index[a] inversion works.
  Xoshiro256 rng{6};
  PlaintextCrafter crafter{rng};
  const Key128 key = rng.key128();
  const gift::RoundKey64 rk0 = gift::extract_round_key64(key);

  for (unsigned s = 0; s < 16; ++s) {
    const TargetBits t = set_target_bits(s);
    const std::uint64_t pt = crafter.craft_plaintext(t, {}, 0);
    const std::uint64_t state1 = gift::Gift64::encrypt_rounds(pt, key, 1);
    const unsigned index = nibble(state1, s);
    const unsigned v = (rk0.v >> s) & 1u;
    const unsigned u = (rk0.u >> s) & 1u;
    EXPECT_EQ(index & 1u, 1u ^ v);
    EXPECT_EQ((index >> 1) & 1u, 1u ^ u);
  }
}

/// The draws craft_state made before they moved into registers: Algorithm
/// 1's lists rebuilt from the runtime S-Box and permutation, one uniform()
/// pick per constrained segment and one nibble() per free segment.
class UniformLoopCrafter {
 public:
  explicit UniformLoopCrafter(unsigned segment) {
    const gift::BitPermutation& perm = gift::gift64_permutation();
    const unsigned bit_a = perm.inverse(4 * segment);
    const unsigned bit_b = perm.inverse(4 * segment + 1);
    seg_a_ = bit_a / 4;
    seg_b_ = bit_b / 4;
    for (unsigned x = 0; x < 16; ++x) {
      const unsigned y = gift::gift_sbox().apply(x);
      if ((y >> (bit_a % 4)) & 1u) list_a_.push_back(x);
      if ((y >> (bit_b % 4)) & 1u) list_b_.push_back(x);
    }
  }

  std::uint64_t craft_state(Xoshiro256& rng) const {
    std::uint64_t state = 0;
    for (unsigned i = 0; i < 16; ++i) {
      unsigned value;
      if (i == seg_a_) {
        value = list_a_[rng.uniform(list_a_.size())];
      } else if (i == seg_b_) {
        value = list_b_[rng.uniform(list_b_.size())];
      } else {
        value = rng.nibble();
      }
      state = with_nibble(state, i, value);
    }
    return state;
  }

 private:
  unsigned seg_a_ = 0;
  unsigned seg_b_ = 0;
  std::vector<unsigned> list_a_;
  std::vector<unsigned> list_b_;
};

TEST(Crafter, DrawStreamMatchesUniformLoop) {
  // craft_state draws once per segment from a register copy of the
  // generator.  After 10^5 crafts per segment and stage, the plaintexts
  // and the generator state equal those of the loop it replaced.
  Xoshiro256 key_rng{0x57AE};
  std::vector<gift::RoundKey64> recovered(3);
  for (gift::RoundKey64& rk : recovered) {
    const std::uint64_t w = key_rng.next();
    rk = {static_cast<std::uint16_t>(w), static_cast<std::uint16_t>(w >> 16)};
  }
  for (unsigned stage = 0; stage < 4; ++stage) {
    for (unsigned s = 0; s < 16; ++s) {
      const UniformLoopCrafter reference{s};
      Xoshiro256 rng{0x5EED + 16 * stage + s};
      Xoshiro256 reference_rng = rng;
      PlaintextCrafter crafter{rng};
      for (int i = 0; i < 100000; ++i) {
        const std::uint64_t want = invert_to_plaintext(
            reference.craft_state(reference_rng), recovered, stage);
        ASSERT_EQ(crafter.craft_plaintext(kTargetBits[s], recovered, stage),
                  want)
            << "segment " << s << " stage " << stage << " craft " << i;
      }
      ASSERT_TRUE(rng == reference_rng)
          << "segment " << s << " stage " << stage;
    }
  }
}

}  // namespace
}  // namespace grinch::attack
