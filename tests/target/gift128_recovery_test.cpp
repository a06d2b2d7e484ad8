// End-to-end recovery of the GIFT-128 target on the generic engine (its
// kernels are tested with GIFT-64's in gift_recovery_test.cpp).
#include "target/gift128_recovery.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "target/registry.h"

namespace grinch::target {
namespace {

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
