#include "gift/permutation.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "oracle/layer_oracle.h"

namespace grinch::gift {
namespace {

/// Random states per differential test (on top of the exhaustive
/// one-byte states that reach every byte-image entry).
constexpr int kSamples = 10000;

::testing::AssertionResult matches_oracle64(const BitPermutation& p,
                                            std::uint64_t v) {
  if (p.apply64(v) == oracle::permute64(p, v) &&
      p.invert64(v) == oracle::permute64(p, v, true)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "state 0x" << std::hex << v;
}

TEST(Permutation, Gift64KnownEntries) {
  // Spot values from the published P64 table (eprint 2017/622, Table 2).
  const BitPermutation& p = gift64_permutation();
  EXPECT_EQ(p.forward(0), 0u);
  EXPECT_EQ(p.forward(1), 17u);
  EXPECT_EQ(p.forward(2), 34u);
  EXPECT_EQ(p.forward(3), 51u);
  EXPECT_EQ(p.forward(4), 48u);
  EXPECT_EQ(p.forward(5), 1u);
  EXPECT_EQ(p.forward(12), 16u);
  EXPECT_EQ(p.forward(63), 15u);
}

TEST(Permutation, Gift64IsBijective) {
  const BitPermutation& p = gift64_permutation();
  std::set<unsigned> targets;
  for (unsigned i = 0; i < 64; ++i) targets.insert(p.forward(i));
  EXPECT_EQ(targets.size(), 64u);
}

TEST(Permutation, Gift128IsBijective) {
  const BitPermutation& p = gift128_permutation();
  std::set<unsigned> targets;
  for (unsigned i = 0; i < 128; ++i) targets.insert(p.forward(i));
  EXPECT_EQ(targets.size(), 128u);
}

TEST(Permutation, InverseTableIsConsistent) {
  const BitPermutation& p = gift64_permutation();
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(p.inverse(p.forward(i)), i);
  }
}

TEST(Permutation, Apply64MovesIndividualBits) {
  const BitPermutation& p = gift64_permutation();
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(p.apply64(std::uint64_t{1} << i),
              std::uint64_t{1} << p.forward(i));
  }
}

TEST(Permutation, Invert64UndoesApply64) {
  Xoshiro256 rng{20};
  const BitPermutation& p = gift64_permutation();
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = rng.block64();
    EXPECT_EQ(p.invert64(p.apply64(v)), v);
  }
}

TEST(Permutation, Apply64MatchesPerBitOracle) {
  // GIFT-64 PermBits and the PRESENT pLayer, both directions: every
  // byte-image entry (one nonzero byte at a time), then random states.
  Xoshiro256 rng{22};
  for (const BitPermutation* p :
       {&gift64_permutation(), &present_permutation()}) {
    for (unsigned b = 0; b < 8; ++b) {
      for (std::uint64_t v = 0; v < 256; ++v) {
        ASSERT_TRUE(matches_oracle64(*p, v << (8 * b)));
      }
    }
    for (int i = 0; i < kSamples; ++i) {
      ASSERT_TRUE(matches_oracle64(*p, rng.block64()));
    }
  }
}

TEST(Permutation, Gift64PreservesBitWithinSegmentSlot) {
  // The GIFT permutation maps bit position i to a position with the same
  // (i mod 4) residue group structure documented in the paper: bit_in_seg
  // is preserved.  (This matters for GRINCH: a round-key-facing bit j of
  // some segment comes from bit position inverse(j) with the same j mod 4.)
  const BitPermutation& p = gift64_permutation();
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(p.forward(i) % 4, i % 4);
  }
}

TEST(Permutation, Gift64SpreadsEachSegmentToFourSegments) {
  // The four bits of any input segment land in four distinct segments —
  // the diffusion property that forces GRINCH to pin bits in four
  // plaintext segments to control one round-2 segment.
  const BitPermutation& p = gift64_permutation();
  for (unsigned s = 0; s < 16; ++s) {
    std::set<unsigned> dest_segments;
    for (unsigned b = 0; b < 4; ++b) dest_segments.insert(p.forward(4 * s + b) / 4);
    EXPECT_EQ(dest_segments.size(), 4u) << "segment " << s;
  }
}

TEST(Permutation, PresentKnownEntries) {
  const BitPermutation& p = present_permutation();
  EXPECT_EQ(p.forward(0), 0u);
  EXPECT_EQ(p.forward(1), 16u);
  EXPECT_EQ(p.forward(2), 32u);
  EXPECT_EQ(p.forward(3), 48u);
  EXPECT_EQ(p.forward(4), 1u);
  EXPECT_EQ(p.forward(62), 47u);  // 16*62 mod 63 = 47
  EXPECT_EQ(p.forward(63), 63u);  // MSB is a fixed point by definition
}

}  // namespace
}  // namespace grinch::gift
