#include "gift/constants.h"

#include <gtest/gtest.h>

namespace grinch::gift {
namespace {

TEST(Constants, FirstConstantsMatchSpec) {
  // eprint 2017/622 Table: 01,03,07,0F,1F,3E,3D,3B,37,2F,1E,3C,...
  const std::uint8_t expected[12] = {0x01, 0x03, 0x07, 0x0F, 0x1F, 0x3E,
                                     0x3D, 0x3B, 0x37, 0x2F, 0x1E, 0x3C};
  RoundConstantLfsr lfsr;
  for (unsigned r = 0; r < 12; ++r) {
    EXPECT_EQ(lfsr.next(), expected[r]) << "round " << r;
  }
}

TEST(Constants, StatelessMatchesStateful) {
  // 64 rounds reach past the LFSR's 63-state period, so the table's
  // wrap-around is checked too.
  RoundConstantLfsr lfsr;
  for (unsigned r = 0; r < 64; ++r) {
    EXPECT_EQ(round_constant(r), lfsr.next()) << "round " << r;
  }
}

TEST(Constants, First48ConstantsAreSixBitsAndNonZero) {
  // The spec lists 48 round constants (enough for GIFT-128's 40 rounds),
  // all non-zero.  The affine LFSR does pass through zero later in its
  // 63-state cycle, which is fine — no GIFT variant uses that many rounds.
  RoundConstantLfsr lfsr;
  for (unsigned r = 0; r < 48; ++r) {
    const std::uint8_t c = lfsr.next();
    EXPECT_LE(c, 0x3F);
    EXPECT_NE(c, 0) << "round " << r;
  }
}

TEST(Constants, LfsrHasFullPeriod64) {
  // The affine update x -> (x<<1)|(c5^c4^1) over 6 bits is a bijection
  // with 0x3F as a fixed point; starting from 0 it must return to 0 after
  // exactly 63 steps.
  RoundConstantLfsr lfsr;
  unsigned period = 0;
  std::uint8_t c;
  do {
    c = lfsr.next();
    ++period;
  } while (c != 0 && period < 1000);
  EXPECT_EQ(period + 1, 64u);  // +1: step back to the initial state 0
}

TEST(Constants, ResetRestartsSequence) {
  RoundConstantLfsr lfsr;
  const std::uint8_t first = lfsr.next();
  lfsr.next();
  lfsr.reset();
  EXPECT_EQ(lfsr.next(), first);
}

TEST(Constants, AddConstant64TogglesExactlyTheSpecBits) {
  const std::uint64_t s0 = 0;
  const std::uint64_t s1 = add_constant64(s0, 0x3F);
  // Bits 63 and 23,19,15,11,7,3 must be set, nothing else.
  std::uint64_t expected = std::uint64_t{1} << 63;
  for (unsigned b : {23u, 19u, 15u, 11u, 7u, 3u}) expected |= std::uint64_t{1} << b;
  EXPECT_EQ(s1, expected);
}

TEST(Constants, AddConstant64IsSelfInverse) {
  const std::uint64_t s = 0x0123456789ABCDEFull;
  EXPECT_EQ(add_constant64(add_constant64(s, 0x2A), 0x2A), s);
}

TEST(Constants, PeriodCoversGift128Rounds) {
  // The 6-bit LFSR sequence must not repeat within GIFT-128's 40 rounds.
  RoundConstantLfsr lfsr;
  std::uint8_t seen[64] = {};
  for (unsigned r = 0; r < 40; ++r) {
    const std::uint8_t c = lfsr.next();
    EXPECT_EQ(seen[c], 0) << "constant repeated at round " << r;
    seen[c] = 1;
  }
}

}  // namespace
}  // namespace grinch::gift
