// Coverage for GrinchAttack configuration combinations not exercised by
// the main end-to-end tests.
#include <gtest/gtest.h>

#include "attack/grinch.h"
#include "common/rng.h"
#include "gift/gift64.h"
#include "target/registry.h"

namespace grinch::attack {
namespace {

target::Gift64Platform::Config default_cfg() {
  return target::Gift64Platform::Config{};
}

TEST(Config, TwoStagePartialAttackRecoversTwoRoundKeys) {
  Xoshiro256 rng{1};
  const Key128 key = rng.key128();
  target::Gift64Platform platform{default_cfg(), key};
  GrinchConfig cfg;
  cfg.stages = 2;
  cfg.seed = 11;
  GrinchAttack attack{platform, cfg};
  const AttackResult r = attack.run();
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.round_keys.size(), 2u);
  const gift::KeySchedule sched{key, 2};
  for (unsigned a = 0; a < 2; ++a) {
    EXPECT_EQ(r.round_keys[a].u, sched.round_key64(a).u);
    EXPECT_EQ(r.round_keys[a].v, sched.round_key64(a).v);
  }
  // Partial attack: no master key is assembled or verified.
  EXPECT_FALSE(r.key_verified);
}

TEST(Config, StatisticalModeOnCleanChannelStillCorrect) {
  Xoshiro256 rng{2};
  const Key128 key = rng.key128();
  target::Gift64Platform platform{default_cfg(), key};
  GrinchConfig cfg;
  cfg.stages = 1;
  cfg.statistical_elimination = true;
  cfg.seed = 21;
  GrinchAttack attack{platform, cfg};
  const AttackResult r = attack.run();
  ASSERT_TRUE(r.success);
  const gift::RoundKey64 truth = gift::extract_round_key64(key);
  EXPECT_EQ(r.round_keys[0].u, truth.u);
  EXPECT_EQ(r.round_keys[0].v, truth.v);
  // Statistical mode waits for kStatMinObs sightings per segment.
  EXPECT_GE(r.total_encryptions, 16u * kStatMinObs);
}

TEST(Config, StatisticalModeFallsBackOnCoarseLines) {
  // Statistical elimination requires full line resolution; on 2-word
  // lines the orchestrator must fall back to the masked pipeline and
  // still recover the key.
  Xoshiro256 rng{3};
  const Key128 key = rng.key128();
  auto cfg = default_cfg();
  cfg.cache.line_bytes = 2;
  target::Gift64Platform platform{cfg, key};
  GrinchConfig acfg;
  acfg.statistical_elimination = true;
  acfg.max_encryptions = 100000;
  acfg.seed = 31;
  GrinchAttack attack{platform, acfg};
  const AttackResult r = attack.run();
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.recovered_key, key);
}

TEST(Config, VotedThresholdCostsMoreOnCleanChannel) {
  Xoshiro256 rng{4};
  const Key128 key = rng.key128();
  GrinchConfig base;
  base.stages = 1;
  base.seed = 41;

  target::Gift64Platform p1{default_cfg(), key};
  GrinchAttack a1{p1, base};
  const auto r1 = a1.run();

  GrinchConfig voted = base;
  voted.elimination_threshold = 3;
  target::Gift64Platform p2{default_cfg(), key};
  GrinchAttack a2{p2, voted};
  const auto r2 = a2.run();

  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_GT(r2.total_encryptions, r1.total_encryptions);
  EXPECT_EQ(r2.round_keys[0].u, r1.round_keys[0].u);
  EXPECT_EQ(r2.round_keys[0].v, r1.round_keys[0].v);
}

TEST(Config, JointModeWorksAtEveryStageDepth) {
  Xoshiro256 rng{6};
  const Key128 key = rng.key128();
  target::Gift64Platform platform{default_cfg(), key};
  GrinchConfig cfg;
  cfg.exploit_all_segments = true;
  cfg.seed = 61;
  GrinchAttack attack{platform, cfg};
  const AttackResult r = attack.run();
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.recovered_key, key);
  EXPECT_LT(r.total_encryptions, 150u);  // joint mode is ~4-5x cheaper
}

TEST(Config, AttackerCyclesAreAccounted) {
  Xoshiro256 rng{7};
  const Key128 key = rng.key128();
  target::Gift64Platform platform{default_cfg(), key};
  GrinchConfig cfg;
  cfg.stages = 1;
  cfg.seed = 71;
  GrinchAttack attack{platform, cfg};
  const AttackResult r = attack.run();
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.stages[0].attacker_cycles, 0u);
}

}  // namespace
}  // namespace grinch::attack
