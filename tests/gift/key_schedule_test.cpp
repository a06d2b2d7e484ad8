#include "gift/key_schedule.h"

#include <gtest/gtest.h>

#include <set>

#include "common/bits.h"
#include "common/rng.h"

namespace grinch::gift {
namespace {

TEST(KeySchedule, UpdateMatchesSpecOnWords) {
  Xoshiro256 rng{30};
  const Key128 k = rng.key128();
  const Key128 n = update_key_state(k);
  // (k7..k0) <- (k1>>>2, k0>>>12, k7..k2)
  EXPECT_EQ(n.word16(7), rotr(k.word16(1), 2, 16));
  EXPECT_EQ(n.word16(6), rotr(k.word16(0), 12, 16));
  for (unsigned w = 0; w < 6; ++w) EXPECT_EQ(n.word16(w), k.word16(w + 2));
}

TEST(KeySchedule, RevertUndoesUpdate) {
  Xoshiro256 rng{31};
  for (int i = 0; i < 50; ++i) {
    const Key128 k = rng.key128();
    EXPECT_EQ(revert_key_state(update_key_state(k)), k);
    EXPECT_EQ(update_key_state(revert_key_state(k)), k);
  }
}

TEST(KeySchedule, UpdateIsAPermutationOfKeyBits) {
  // Each master-key bit must appear exactly once in the updated state.
  for (unsigned pos = 0; pos < 128; ++pos) {
    const Key128 k = Key128{}.with_bit(pos, 1);
    const Key128 n = update_key_state(k);
    unsigned ones = 0;
    for (unsigned j = 0; j < 128; ++j) ones += n.bit(j);
    EXPECT_EQ(ones, 1u) << "bit " << pos;
  }
}

TEST(KeySchedule, RoundKey64UsesWords1And0) {
  Xoshiro256 rng{32};
  const Key128 k = rng.key128();
  const RoundKey64 rk = extract_round_key64(k);
  EXPECT_EQ(rk.u, k.word16(1));
  EXPECT_EQ(rk.v, k.word16(0));
}

TEST(KeySchedule, RoundKey128UsesWords54And10) {
  Xoshiro256 rng{33};
  const Key128 k = rng.key128();
  const RoundKey128 rk = extract_round_key128(k);
  EXPECT_EQ(rk.u, (static_cast<std::uint32_t>(k.word16(5)) << 16) | k.word16(4));
  EXPECT_EQ(rk.v, (static_cast<std::uint32_t>(k.word16(1)) << 16) | k.word16(0));
}

TEST(KeySchedule, ScheduleStatesChainViaUpdate) {
  Xoshiro256 rng{34};
  const Key128 key = rng.key128();
  const KeySchedule sched{key, 28};
  ASSERT_EQ(sched.rounds(), 28u);
  EXPECT_EQ(sched.state(0), key);
  for (unsigned r = 1; r < 28; ++r) {
    EXPECT_EQ(sched.state(r), update_key_state(sched.state(r - 1)));
  }
}

TEST(KeyBitOrigins, Round0IsIdentity) {
  constexpr auto origins = key_bit_origins<4>();
  for (unsigned pos = 0; pos < 128; ++pos) {
    EXPECT_EQ(origins[0][pos], pos);
  }
}

TEST(KeyBitOrigins, EachRoundIsAPermutation) {
  constexpr auto origins = key_bit_origins<28>();
  for (unsigned r = 0; r < 28; ++r) {
    const std::set<unsigned> seen(origins[r].begin(), origins[r].end());
    EXPECT_EQ(seen.size(), 128u) << "round " << r;
  }
}

TEST(KeyBitOrigins, MatchesConcreteSchedule) {
  // Setting exactly master bit b must make the scheduled state at round r
  // have a 1 exactly where origins says bit b lives.
  constexpr auto origins = key_bit_origins<8>();
  for (unsigned b = 0; b < 128; b += 7) {
    const Key128 key = Key128{}.with_bit(b, 1);
    const KeySchedule sched{key, 8};
    for (unsigned r = 0; r < 8; ++r) {
      for (unsigned pos = 0; pos < 128; ++pos) {
        const unsigned expected = (origins[r][pos] == b);
        EXPECT_EQ(sched.state(r).bit(pos), expected)
            << "bit " << b << " round " << r << " pos " << pos;
      }
    }
  }
}

TEST(KeyBitOrigins, FirstFourRoundsCoverAllKeyBits64) {
  // GIFT-64 uses 32 fresh key bits per round (V from state bits 0..15, U
  // from 16..31); rounds 0..3 together must cover all 128 master-key bits
  // (the premise of GRINCH's four-stage full-key recovery).
  constexpr auto origins = key_bit_origins<4>();
  std::set<unsigned> used;
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned i = 0; i < 16; ++i) {
      used.insert(origins[r][16 + i]);
      used.insert(origins[r][i]);
    }
  }
  EXPECT_EQ(used.size(), 128u);
}

TEST(KeyBitOrigins, Round0RoundKeyIsIdentityMapping) {
  // Round key 0's V_i is master bit i and its U_i master bit 16 + i.
  constexpr auto origins = key_bit_origins<1>();
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(origins[0][i], i);
    EXPECT_EQ(origins[0][16 + i], 16 + i);
    EXPECT_EQ(extract_round_key64(Key128{}.with_bit(i, 1)).v, 1u << i);
    EXPECT_EQ(extract_round_key64(Key128{}.with_bit(16 + i, 1)).u, 1u << i);
  }
}

TEST(KeyBitOrigins, Gift128FirstTwoRoundsCoverAllKeyBits) {
  // GIFT-128 uses 64 key bits per round (V from state bits 0..31, U from
  // 64..95); rounds 0..1 must cover all 128.
  constexpr auto origins = key_bit_origins<2>();
  std::set<unsigned> used;
  for (unsigned r = 0; r < 2; ++r) {
    for (unsigned i = 0; i < 32; ++i) {
      used.insert(origins[r][64 + i]);
      used.insert(origins[r][i]);
    }
  }
  EXPECT_EQ(used.size(), 128u);
}

}  // namespace
}  // namespace grinch::gift
