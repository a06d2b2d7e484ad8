// Algorithm 1: the lists must force the key-facing bits of the target
// segment to 1 through SubCells + PermBits.
#include "attack/target_bits.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bits.h"
#include "common/rng.h"
#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::attack {
namespace {

TEST(TargetBits, SourceBitsAreKeyFacingPositionsPrePermutation) {
  const auto& perm = gift::gift64_permutation();
  for (unsigned s = 0; s < 16; ++s) {
    const TargetBits t = set_target_bits(s);
    EXPECT_EQ(perm.forward(t.bit_a), 4 * s);
    EXPECT_EQ(perm.forward(t.bit_b), 4 * s + 1);
    EXPECT_EQ(t.seg_a, t.bit_a / 4);
    EXPECT_EQ(t.seg_b, t.bit_b / 4);
  }
}

TEST(TargetBits, SourceSegmentsAreDistinct) {
  // PermBits spreads segment bits, so the two pinned bits always come
  // from two different plaintext segments.
  for (unsigned s = 0; s < 16; ++s) {
    const TargetBits t = set_target_bits(s);
    EXPECT_NE(t.seg_a, t.seg_b) << "segment " << s;
  }
}

TEST(TargetBits, ModFourResidueIsPreserved) {
  // The GIFT permutation preserves i mod 4, so bit_a is always a bit-0
  // slot and bit_b a bit-1 slot of its source segment.
  for (unsigned s = 0; s < 16; ++s) {
    const TargetBits t = set_target_bits(s);
    EXPECT_EQ(t.bit_a % 4, 0u);
    EXPECT_EQ(t.bit_b % 4, 1u);
  }
}

TEST(TargetBits, ListAForcesOutputBitOne) {
  for (unsigned s = 0; s < 16; ++s) {
    const TargetBits t = set_target_bits(s);
    ASSERT_FALSE(t.list_a.empty());
    for (unsigned x : t.list_a) {
      EXPECT_EQ((gift::gift_sbox().apply(x) >> (t.bit_a % 4)) & 1u, 1u);
    }
  }
}

TEST(TargetBits, ListBForcesOutputBitOne) {
  for (unsigned s = 0; s < 16; ++s) {
    const TargetBits t = set_target_bits(s);
    ASSERT_FALSE(t.list_b.empty());
    for (unsigned x : t.list_b) {
      EXPECT_EQ((gift::gift_sbox().apply(x) >> (t.bit_b % 4)) & 1u, 1u);
    }
  }
}

TEST(TargetBits, ListsAreExactPreimages) {
  // Anything NOT in the list must force a 0 — the lists are complete.
  const TargetBits t = set_target_bits(3);
  for (unsigned x = 0; x < 16; ++x) {
    const bool in_list =
        std::find(t.list_a.begin(), t.list_a.end(), x) != t.list_a.end();
    const bool forces_one =
        ((gift::gift_sbox().apply(x) >> (t.bit_a % 4)) & 1u) == 1u;
    EXPECT_EQ(in_list, forces_one) << "x=" << x;
  }
}

TEST(TargetBits, ListsHaveEightEntriesForBalancedSBox) {
  // GS is balanced: every output bit is 1 for exactly 8 of 16 inputs.
  for (unsigned s = 0; s < 16; ++s) {
    const TargetBits t = set_target_bits(s);
    EXPECT_EQ(t.list_a.size(), 8u);
    EXPECT_EQ(t.list_b.size(), 8u);
  }
}

TEST(TargetBits, EndToEndPinnedBitsSurviveRoundOne) {
  // Property check through the real cipher machinery: a state whose
  // seg_a/seg_b are drawn from the lists yields PermBits output with bits
  // 4s and 4s+1 equal to 1, for any values of the other segments.
  Xoshiro256 rng{0xABC};
  for (unsigned s = 0; s < 16; ++s) {
    const TargetBits t = set_target_bits(s);
    for (int trial = 0; trial < 20; ++trial) {
      std::uint64_t state = rng.block64();
      state = with_nibble(state, t.seg_a,
                          t.list_a[rng.uniform(t.list_a.size())]);
      state = with_nibble(state, t.seg_b,
                          t.list_b[rng.uniform(t.list_b.size())]);
      const std::uint64_t after = gift::gift64_permutation().apply64(
          gift::gift_sbox().apply_state64(state));
      EXPECT_EQ(bit(after, 4 * s), 1u);
      EXPECT_EQ(bit(after, 4 * s + 1), 1u);
    }
  }
}

}  // namespace
}  // namespace grinch::attack
