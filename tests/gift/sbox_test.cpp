#include "gift/sbox.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/rng.h"
#include "oracle/layer_oracle.h"

namespace grinch::gift {
namespace {

::testing::AssertionResult matches_oracle(const SBox& sbox, std::uint64_t v) {
  if (sbox.apply_state64(v) == oracle::sub_cells64(sbox, v) &&
      sbox.invert_state64(v) == oracle::sub_cells64(sbox, v, true)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "state 0x" << std::hex << v;
}

TEST(SBox, GiftTableMatchesSpec) {
  // eprint 2017/622 Table 1.
  const unsigned expected[16] = {0x1, 0xa, 0x4, 0xc, 0x6, 0xf, 0x3, 0x9,
                                 0x2, 0xd, 0xb, 0x7, 0x5, 0x0, 0x8, 0xe};
  for (unsigned x = 0; x < 16; ++x) EXPECT_EQ(gift_sbox().apply(x), expected[x]);
}

TEST(SBox, GiftIsBijective) {
  std::set<unsigned> outputs;
  for (unsigned x = 0; x < 16; ++x) outputs.insert(gift_sbox().apply(x));
  EXPECT_EQ(outputs.size(), 16u);
}

TEST(SBox, InverseUndoesForward) {
  for (unsigned x = 0; x < 16; ++x) {
    EXPECT_EQ(gift_sbox().invert(gift_sbox().apply(x)), x);
    EXPECT_EQ(gift_sbox().apply(gift_sbox().invert(x)), x);
  }
}

TEST(SBox, GiftHasNoFixedPointAtZero) {
  // GS(0) = 1: the S-Box maps zero away from zero (no trivial fixed point
  // for the all-zero state in round 1).
  EXPECT_NE(gift_sbox().apply(0), 0u);
}

TEST(SBox, ApplyState64SubstitutesEachNibbleIndependently) {
  const std::uint64_t in = 0xFEDCBA9876543210ull;
  const std::uint64_t out = gift_sbox().apply_state64(in);
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ((out >> (4 * i)) & 0xF, gift_sbox().apply(i)) << i;
  }
}

TEST(SBox, InvertState64IsInverseOfApplyState64) {
  const std::uint64_t in = 0x0123456789ABCDEFull;
  EXPECT_EQ(gift_sbox().invert_state64(gift_sbox().apply_state64(in)), in);
}

TEST(SBox, StateSubstitutionMatchesPerNibbleOracle) {
  // Both S-Boxes, both directions: every byte-table entry at every byte
  // position, then 10^4 random states.
  Xoshiro256 rng{24};
  for (const SBox* sbox : {&gift_sbox(), &present_sbox()}) {
    for (unsigned b = 0; b < 8; ++b) {
      for (std::uint64_t v = 0; v < 256; ++v) {
        ASSERT_TRUE(matches_oracle(*sbox, v << (8 * b)));
      }
    }
    for (int i = 0; i < 10000; ++i) {
      ASSERT_TRUE(matches_oracle(*sbox, rng.block64()));
    }
  }
}

TEST(SBox, PresentTableMatchesSpec) {
  const unsigned expected[16] = {0xc, 0x5, 0x6, 0xb, 0x9, 0x0, 0xa, 0xd,
                                 0x3, 0xe, 0xf, 0x8, 0x4, 0x7, 0x1, 0x2};
  for (unsigned x = 0; x < 16; ++x)
    EXPECT_EQ(present_sbox().apply(x), expected[x]);
}

TEST(SBox, GiftNonLinearity) {
  // GS must not be affine: check that GS(x) ^ GS(x^d) is not constant for
  // every difference d (a basic differential sanity property).
  for (unsigned d = 1; d < 16; ++d) {
    std::set<unsigned> diffs;
    for (unsigned x = 0; x < 16; ++x) {
      diffs.insert(gift_sbox().apply(x) ^ gift_sbox().apply(x ^ d));
    }
    EXPECT_GT(diffs.size(), 1u) << "difference " << d << " behaves linearly";
  }
}

TEST(SBox, EveryOutputBitDependsOnInput) {
  // For each output bit there exist inputs where it is 0 and where it is 1.
  for (unsigned b = 0; b < 4; ++b) {
    bool saw0 = false, saw1 = false;
    for (unsigned x = 0; x < 16; ++x) {
      ((gift_sbox().apply(x) >> b) & 1u) ? saw1 = true : saw0 = true;
    }
    EXPECT_TRUE(saw0 && saw1) << "output bit " << b;
  }
}

}  // namespace
}  // namespace grinch::gift
