// End-to-end GRINCH attack tests against the simulated platforms.
#include "attack/grinch.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gift/gift64.h"
#include "soc/platform.h"
#include "target/registry.h"

namespace grinch::attack {
namespace {

target::Gift64Platform::Config direct_config(unsigned line_words,
                                             unsigned probing_round,
                                             bool use_flush) {
  target::Gift64Platform::Config cfg;
  cfg.cache.line_bytes = line_words;
  cfg.probing_round = probing_round;
  cfg.use_flush = use_flush;
  return cfg;
}

TEST(Grinch, RecoversFullKeyUnderFourHundredEncryptions) {
  // The paper's headline: "the full key could be recovered with less than
  // 400 encryptions" (probing round 1, flush, 1-word lines).
  Xoshiro256 rng{0x400};
  for (int trial = 0; trial < 5; ++trial) {
    const Key128 key = rng.key128();
    target::Gift64Platform platform{direct_config(1, 1, true), key};
    GrinchConfig cfg;
    cfg.seed = 0x1234 + static_cast<std::uint64_t>(trial);
    GrinchAttack attack{platform, cfg};
    const AttackResult result = attack.run();
    ASSERT_TRUE(result.success) << "trial " << trial;
    EXPECT_TRUE(result.key_verified);
    EXPECT_EQ(result.recovered_key, key);
    EXPECT_LT(result.total_encryptions, 400u);
    ASSERT_EQ(result.stages.size(), 4u);
  }
}

TEST(Grinch, SingleStageRecoversRoundKeyZero) {
  Xoshiro256 rng{0x401};
  const Key128 key = rng.key128();
  target::Gift64Platform platform{direct_config(1, 1, true), key};
  GrinchConfig cfg;
  cfg.stages = 1;
  GrinchAttack attack{platform, cfg};
  const AttackResult result = attack.run();
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.round_keys.size(), 1u);
  const gift::RoundKey64 expected = gift::extract_round_key64(key);
  EXPECT_EQ(result.round_keys[0].u, expected.u);
  EXPECT_EQ(result.round_keys[0].v, expected.v);
}

TEST(Grinch, WithoutFlushStillSucceedsButCostsMore) {
  Xoshiro256 rng{0x402};
  const Key128 key = rng.key128();
  GrinchConfig cfg;
  cfg.stages = 1;

  target::Gift64Platform with_flush{direct_config(1, 1, true), key};
  GrinchAttack a1{with_flush, cfg};
  const AttackResult r1 = a1.run();

  target::Gift64Platform without_flush{direct_config(1, 1, false), key};
  GrinchAttack a2{without_flush, cfg};
  const AttackResult r2 = a2.run();

  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_LT(r1.total_encryptions, r2.total_encryptions);
}

TEST(Grinch, LaterProbingIncreasesEffortMonotonically) {
  Xoshiro256 rng{0x403};
  const Key128 key = rng.key128();
  GrinchConfig cfg;
  cfg.stages = 1;
  std::uint64_t prev = 0;
  for (unsigned k : {1u, 3u, 5u}) {
    target::Gift64Platform platform{direct_config(1, k, true), key};
    GrinchAttack attack{platform, cfg};
    const AttackResult r = attack.run();
    ASSERT_TRUE(r.success) << "probing round " << k;
    EXPECT_GT(r.total_encryptions, prev) << "probing round " << k;
    prev = r.total_encryptions;
  }
}

TEST(Grinch, TwoWordLinesResolveViaCrossStagePropagation) {
  Xoshiro256 rng{0x404};
  const Key128 key = rng.key128();
  target::Gift64Platform platform{direct_config(2, 1, true), key};
  GrinchConfig cfg;
  cfg.seed = 77;
  GrinchAttack attack{platform, cfg};
  const AttackResult result = attack.run();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.recovered_key, key);
  // Line-size 2 hides the v bits in-round: some stage must have deferred.
  bool any_deferred = false;
  for (const auto& s : result.stages) any_deferred |= s.deferred;
  EXPECT_TRUE(any_deferred);
}

TEST(Grinch, FourWordLinesStillCrackWithMoreEffort) {
  Xoshiro256 rng{0x405};
  const Key128 key = rng.key128();
  target::Gift64Platform platform{direct_config(4, 1, true), key};
  GrinchConfig cfg;
  cfg.seed = 78;
  cfg.max_encryptions = 300000;
  GrinchAttack attack{platform, cfg};
  const AttackResult result = attack.run();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.recovered_key, key);
  EXPECT_GT(result.total_encryptions, 1000u);  // far beyond the 1-word cost
}

TEST(Grinch, DropoutReportedWhenBudgetExhausted) {
  Xoshiro256 rng{0x406};
  const Key128 key = rng.key128();
  // 8-word lines and probing round 3: far beyond a tiny budget.
  target::Gift64Platform platform{direct_config(8, 3, true), key};
  GrinchConfig cfg;
  cfg.max_encryptions = 2000;
  GrinchAttack attack{platform, cfg};
  const AttackResult result = attack.run();
  EXPECT_FALSE(result.success);
  EXPECT_GE(result.total_encryptions, cfg.max_encryptions);
}

TEST(Grinch, JointSegmentExploitationIsCheaper) {
  // Ablation: updating all 16 segments per observation beats the paper's
  // sequential per-segment methodology by a wide margin.
  Xoshiro256 rng{0x407};
  const Key128 key = rng.key128();
  GrinchConfig sequential;
  sequential.stages = 1;
  GrinchConfig joint = sequential;
  joint.exploit_all_segments = true;

  target::Gift64Platform p1{direct_config(1, 1, true), key};
  GrinchAttack a1{p1, sequential};
  const auto r1 = a1.run();
  target::Gift64Platform p2{direct_config(1, 1, true), key};
  GrinchAttack a2{p2, joint};
  const auto r2 = a2.run();

  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_LT(r2.total_encryptions, r1.total_encryptions / 2);
}

TEST(Grinch, PrimeProbeAlsoRecoversTheKey) {
  Xoshiro256 rng{0x408};
  const Key128 key = rng.key128();
  target::Gift64Platform::Config pcfg = direct_config(1, 1, true);
  pcfg.method = target::ProbeMethod::kPrimeProbe;
  target::Gift64Platform platform{pcfg, key};
  GrinchConfig cfg;
  cfg.stages = 1;
  GrinchAttack attack{platform, cfg};
  const AttackResult result = attack.run();
  ASSERT_TRUE(result.success);
  const gift::RoundKey64 expected = gift::extract_round_key64(key);
  EXPECT_EQ(result.round_keys[0].u, expected.u);
  EXPECT_EQ(result.round_keys[0].v, expected.v);
}

TEST(Grinch, MpSocPlatformEndToEnd) {
  Xoshiro256 rng{0x409};
  const Key128 key = rng.key128();
  soc::MpSoc platform{soc::MpSoc::Config{}, key};
  GrinchConfig cfg;
  cfg.seed = 0xBEEF;
  GrinchAttack attack{platform, cfg};
  const AttackResult result = attack.run();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.recovered_key, key);
  EXPECT_LT(result.total_encryptions, 400u);
}

TEST(Grinch, DeterministicForFixedSeed) {
  Xoshiro256 rng{0x40A};
  const Key128 key = rng.key128();
  GrinchConfig cfg;
  cfg.stages = 1;
  cfg.seed = 42;
  target::Gift64Platform p1{direct_config(1, 1, true), key};
  target::Gift64Platform p2{direct_config(1, 1, true), key};
  GrinchAttack a1{p1, cfg};
  GrinchAttack a2{p2, cfg};
  EXPECT_EQ(a1.run().total_encryptions, a2.run().total_encryptions);
}

class GrinchManyKeys : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GrinchManyKeys, FullRecoveryForDiverseKeys) {
  Xoshiro256 rng{GetParam()};
  const Key128 key = rng.key128();
  target::Gift64Platform platform{direct_config(1, 1, true), key};
  GrinchConfig cfg;
  cfg.seed = GetParam() ^ 0x5A5A;
  GrinchAttack attack{platform, cfg};
  const AttackResult result = attack.run();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.recovered_key, key);
}

INSTANTIATE_TEST_SUITE_P(KeySweep, GrinchManyKeys,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Grinch, RecoversAllZeroAndAllOneKeys) {
  for (const Key128& key :
       {Key128{0, 0}, Key128{~0ull, ~0ull}, Key128{0, ~0ull}}) {
    target::Gift64Platform platform{direct_config(1, 1, true), key};
    GrinchConfig cfg;
    GrinchAttack attack{platform, cfg};
    const AttackResult result = attack.run();
    ASSERT_TRUE(result.success) << key.to_hex();
    EXPECT_EQ(result.recovered_key, key);
  }
}

}  // namespace
}  // namespace grinch::attack
