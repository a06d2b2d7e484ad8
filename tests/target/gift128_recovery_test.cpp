// Tests for the GIFT-128 target (Algorithm 1/2 math + generic-engine
// recovery; ported from the pre-unification attack-stack tests).
#include "target/gift128_recovery.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "gift/permutation.h"
#include "gift/sbox.h"
#include "target/registry.h"

namespace grinch::target {
namespace {

TEST(TargetBits128, SourceBitsFeedKeyFacingPositions) {
  const auto& perm = gift::gift128_permutation();
  for (unsigned s = 0; s < 32; ++s) {
    const TargetBits128 t = set_target_bits128(s);
    EXPECT_EQ(perm.forward(t.bit_a), 4 * s + 1);
    EXPECT_EQ(perm.forward(t.bit_b), 4 * s + 2);
    EXPECT_EQ(t.bit_a % 4, 1u);  // mod-4 preservation
    EXPECT_EQ(t.bit_b % 4, 2u);
    EXPECT_NE(t.seg_a, t.seg_b);
    EXPECT_EQ(t.list_a.size(), 8u);  // GS is balanced
    EXPECT_EQ(t.list_b.size(), 8u);
  }
}

TEST(TargetBits128, ListsForceOutputBitsToOne) {
  for (unsigned s = 0; s < 32; s += 7) {
    const TargetBits128 t = set_target_bits128(s);
    for (unsigned x : t.list_a) {
      EXPECT_EQ((gift::gift_sbox().apply(x) >> (t.bit_a % 4)) & 1u, 1u);
    }
    for (unsigned x : t.list_b) {
      EXPECT_EQ((gift::gift_sbox().apply(x) >> (t.bit_b % 4)) & 1u, 1u);
    }
  }
}

TEST(Predictor128, IndexIdentityHolds) {
  // monitored index = n XOR (c << 1) with c = (u<<1)|v.
  Xoshiro256 rng{1};
  for (int trial = 0; trial < 20; ++trial) {
    const Key128 key = rng.key128();
    const gift::State128 pt{rng.block64(), rng.block64()};
    const gift::RoundKey128 rk0 = gift::extract_round_key128(key);
    const auto n = pre_key_nibbles128(pt, {}, 0);
    const gift::State128 state1 = gift::Gift128::encrypt_rounds(pt, key, 1);
    for (unsigned s = 0; s < 32; ++s) {
      const unsigned c = ((((rk0.u >> s) & 1u) << 1) | ((rk0.v >> s) & 1u));
      EXPECT_EQ(state1.nibble(s), n[s] ^ (c << 1)) << "segment " << s;
    }
  }
}

TEST(Crafter128, PinsKeyFacingBits) {
  Xoshiro256 rng{2};
  PlaintextCrafter128 crafter{rng};
  for (unsigned s = 0; s < 32; s += 5) {
    const TargetBits128 t = set_target_bits128(s);
    const gift::State128 pt = crafter.craft_plaintext(t, {}, 0);
    const auto n = pre_key_nibbles128(pt, {}, 0);
    // Bits 1 and 2 of the pre-key nibble must be 1.
    EXPECT_EQ(n[s] & 0x6, 0x6u) << "segment " << s;
  }
}

TEST(Crafter128, DeepStageInversionRoundTrips) {
  Xoshiro256 rng{3};
  const Key128 key = rng.key128();
  const gift::KeySchedule sched{key, 2};
  std::vector<gift::RoundKey128> keys{sched.round_key128(0)};
  PlaintextCrafter128 crafter{rng};
  const TargetBits128 t = set_target_bits128(9);
  const gift::State128 pt = crafter.craft_plaintext(t, keys, 1);
  const auto n = pre_key_nibbles128(pt, keys, 1);
  EXPECT_EQ(n[9] & 0x6, 0x6u);
}

/// PlaintextCrafter128's draws before they moved into registers: lists
/// from the runtime S-Box and permutation, uniform() on each list and
/// nibble() on every free segment.
class UniformLoopCrafter128 {
 public:
  explicit UniformLoopCrafter128(unsigned segment) {
    const gift::BitPermutation& perm = gift::gift128_permutation();
    const unsigned bit_a = perm.inverse(4 * segment + 1);
    const unsigned bit_b = perm.inverse(4 * segment + 2);
    seg_a_ = bit_a / 4;
    seg_b_ = bit_b / 4;
    for (unsigned x = 0; x < 16; ++x) {
      const unsigned y = gift::gift_sbox().apply(x);
      if ((y >> (bit_a % 4)) & 1u) list_a_.push_back(x);
      if ((y >> (bit_b % 4)) & 1u) list_b_.push_back(x);
    }
  }

  gift::State128 craft_state(Xoshiro256& rng) const {
    gift::State128 state{};
    for (unsigned s = 0; s < 32; ++s) {
      unsigned value;
      if (s == seg_a_) {
        value = list_a_[rng.uniform(list_a_.size())];
      } else if (s == seg_b_) {
        value = list_b_[rng.uniform(list_b_.size())];
      } else {
        value = rng.nibble();
      }
      if (s < 16)
        state.lo |= static_cast<std::uint64_t>(value) << (4 * s);
      else
        state.hi |= static_cast<std::uint64_t>(value) << (4 * (s - 16));
    }
    return state;
  }

 private:
  unsigned seg_a_ = 0;
  unsigned seg_b_ = 0;
  std::vector<unsigned> list_a_;
  std::vector<unsigned> list_b_;
};

TEST(Crafter128, DrawStreamMatchesUniformLoop) {
  // As Crafter.DrawStreamMatchesUniformLoop: 10^5 crafts per segment and
  // stage give the old loop's plaintexts and generator state.
  Xoshiro256 key_rng{0x57AF};
  const std::vector<gift::RoundKey128> recovered{
      {static_cast<std::uint32_t>(key_rng.next()),
       static_cast<std::uint32_t>(key_rng.next())}};
  for (unsigned stage = 0; stage < 2; ++stage) {
    for (unsigned s = 0; s < 32; ++s) {
      const UniformLoopCrafter128 reference{s};
      Xoshiro256 rng{0x5EEE + 32 * stage + s};
      Xoshiro256 reference_rng = rng;
      PlaintextCrafter128 crafter{rng};
      for (int i = 0; i < 100000; ++i) {
        gift::State128 want = reference.craft_state(reference_rng);
        for (unsigned r = stage; r-- > 0;) {
          want = gift::Gift128::inverse_round_function(want, recovered[r], r);
        }
        ASSERT_EQ(
            crafter.craft_plaintext(kTargetBits128[s], recovered, stage),
            want)
            << "segment " << s << " stage " << stage << " craft " << i;
      }
      ASSERT_TRUE(rng == reference_rng)
          << "segment " << s << " stage " << stage;
    }
  }
}

TEST(Assemble128, RoundTripsThroughTheKeySchedule) {
  Xoshiro256 rng{4};
  for (int i = 0; i < 30; ++i) {
    const Key128 key = rng.key128();
    const gift::KeySchedule sched{key, 2};
    const std::vector<gift::RoundKey128> rks{sched.round_key128(0),
                                             sched.round_key128(1)};
    EXPECT_EQ(assemble_master_key128(rks), key);
  }
}

TEST(Gift128Recovery, RecoversFullKey) {
  Xoshiro256 rng{5};
  for (int trial = 0; trial < 3; ++trial) {
    const Key128 key = rng.key128();
    KeyRecoveryEngine<Gift128Recovery>::Config cfg;
    cfg.seed = 500 + static_cast<std::uint64_t>(trial);
    const RecoveryResult<Gift128Recovery> r =
        recover_key<Gift128Recovery>(key, cfg);
    ASSERT_TRUE(r.success) << "trial " << trial;
    EXPECT_TRUE(r.key_verified);
    EXPECT_EQ(r.recovered_key, key);
    // Two stages only (GIFT-128 uses 64 key bits per round).
    EXPECT_GT(r.stage_encryptions[0], 0u);
    EXPECT_GT(r.stage_encryptions[1], 0u);
  }
}

TEST(Gift128Recovery, EffortIsHigherPerStageThanGift64) {
  // 32 S-Box accesses per round nearly saturate the 16-entry table, so
  // fewer lines are absent per probe and each segment costs more
  // encryptions than in GIFT-64 — but the total stays in the hundreds.
  Xoshiro256 rng{6};
  const Key128 key = rng.key128();
  KeyRecoveryEngine<Gift128Recovery>::Config cfg;
  cfg.seed = 77;
  const RecoveryResult<Gift128Recovery> r =
      recover_key<Gift128Recovery>(key, cfg);
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.total_encryptions, 300u);
  EXPECT_LT(r.total_encryptions, 3000u);
}

TEST(Gift128Recovery, DropoutOnTinyBudget) {
  Xoshiro256 rng{7};
  const Key128 key = rng.key128();
  KeyRecoveryEngine<Gift128Recovery>::Config cfg;
  cfg.max_encryptions = 50;
  const RecoveryResult<Gift128Recovery> r =
      recover_key<Gift128Recovery>(key, cfg);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.stages_resolved);
}

}  // namespace
}  // namespace grinch::target
