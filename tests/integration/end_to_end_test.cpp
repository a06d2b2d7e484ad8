// Cross-module integration tests: cipher + cache + platforms + attack +
// countermeasures driven together, the way a downstream user would.
#include <gtest/gtest.h>

#include "attack/grinch.h"
#include "cachesim/hierarchy.h"
#include "common/rng.h"
#include "common/stats.h"
#include "countermeasures/hardened_schedule.h"
#include "countermeasures/packed_sbox.h"
#include "gift/gift64.h"
#include "soc/platform.h"
#include "soc/victim.h"
#include "target/registry.h"

namespace grinch {
namespace {

TEST(Integration, VictimAccessesLandInTheSharedCache) {
  gift::TableGift64 cipher;
  cachesim::Cache cache{cachesim::CacheConfig::paper_default()};
  soc::VictimProcess victim{cipher, cache, soc::VictimCostModel{}};
  Xoshiro256 rng{1};
  victim.begin_encryption(rng.block64(), rng.key128());
  victim.finish();
  // With 1-byte lines the 256-row PermBits table folds into only 8 sets
  // (stride 8 over 64 sets), overflowing 16 ways — the victim generates
  // genuine eviction pressure, one of the paper's noise sources.
  EXPECT_GT(cache.stats().evictions, 0u);
  // But lines touched during the *last* round cannot have been evicted
  // (16-way LRU, at most 2 fills per set afterwards).
  const auto& trace = victim.trace();
  ASSERT_GE(trace.size(), 32u);
  for (std::size_t i = trace.size() - 32; i < trace.size(); ++i) {
    EXPECT_TRUE(cache.contains(trace[i].access.addr));
  }
}

TEST(Integration, DirectProbeAndMpSocRecoverTheSameKey) {
  Xoshiro256 rng{2};
  const Key128 key = rng.key128();

  target::Gift64Platform direct{target::Gift64Platform::Config{}, key};
  attack::GrinchConfig cfg;
  cfg.seed = 21;
  attack::GrinchAttack a1{direct, cfg};
  const auto r1 = a1.run();

  soc::MpSoc mpsoc{soc::MpSoc::Config{}, key};
  cfg.seed = 22;
  attack::GrinchAttack a2{mpsoc, cfg};
  const auto r2 = a2.run();

  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_EQ(r1.recovered_key, r2.recovered_key);
  EXPECT_EQ(r1.recovered_key, key);
}

TEST(Integration, SingleCoreSoCFirstRoundAttackAtLowClock) {
  // At 14 MHz the 10 ms quantum covers rounds 1-2 completely, so the
  // attacker's scheduled probe captures the monitored round (plus round-1
  // dirt, since the flush can only happen before the victim's quantum).
  Xoshiro256 rng{3};
  const Key128 key = rng.key128();
  soc::SingleCoreSoC::Config cfg;
  cfg.rtos.clock_mhz = 14.0;
  soc::SingleCoreSoC soc{cfg, key};

  attack::GrinchConfig acfg;
  acfg.stages = 1;
  acfg.exploit_all_segments = true;  // each quantum costs 10 ms: be greedy
  acfg.max_encryptions = 30000;
  acfg.seed = 31;
  attack::GrinchAttack attack{soc, acfg};
  const auto r = attack.run();
  ASSERT_TRUE(r.success);
  const gift::RoundKey64 expected = gift::extract_round_key64(key);
  EXPECT_EQ(r.round_keys[0].u, expected.u);
  EXPECT_EQ(r.round_keys[0].v, expected.v);
}

TEST(Integration, AttackSucceedsUnderEveryReplacementPolicy) {
  Xoshiro256 rng{4};
  const Key128 key = rng.key128();
  for (auto policy :
       {cachesim::Replacement::kLru, cachesim::Replacement::kFifo,
        cachesim::Replacement::kPlru, cachesim::Replacement::kRandom}) {
    target::Gift64Platform::Config cfg;
    cfg.cache.replacement = policy;
    target::Gift64Platform platform{cfg, key};
    attack::GrinchConfig acfg;
    acfg.stages = 1;
    acfg.seed = 41;
    attack::GrinchAttack attack{platform, acfg};
    EXPECT_TRUE(attack.run().success) << cachesim::to_string(policy);
  }
}

TEST(Integration, PackedSBoxProtectsTheMpSocToo) {
  Xoshiro256 rng{5};
  const Key128 key = rng.key128();
  soc::MpSoc::Config cfg;
  cfg.layout = cm::packed_sbox_layout();
  cfg.cache = cm::packed_sbox_cache();
  soc::MpSoc mpsoc{cfg, key};
  attack::GrinchConfig acfg;
  acfg.max_encryptions = 5000;
  acfg.seed = 51;
  attack::GrinchAttack attack{mpsoc, acfg};
  const auto r = attack.run();
  EXPECT_FALSE(r.success);
}

TEST(Integration, HardenedVictimLeaksOnlyUselessBits) {
  Xoshiro256 rng{6};
  const Key128 key = rng.key128();
  target::Gift64Platform platform{
      {}, cm::hardened_round_keys(key, gift::Gift64::kRounds)};
  attack::GrinchConfig acfg;
  acfg.seed = 61;
  attack::GrinchAttack attack{platform, acfg};
  const auto r = attack.run();
  // All four stages converge (the leak is intact)...
  ASSERT_EQ(r.round_keys.size(), 4u);
  // ...and they really are the effective (whitened) sub-keys...
  const auto effective = cm::hardened_round_keys(key, 4);
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_EQ(r.round_keys[s].u, effective[s].u) << "stage " << s;
    EXPECT_EQ(r.round_keys[s].v, effective[s].v) << "stage " << s;
  }
  // ...but the assembled master key fails verification.
  EXPECT_FALSE(r.key_verified);
  EXPECT_FALSE(r.success);
}

TEST(Integration, TwoLevelHierarchyStillDistinguishesHits) {
  // Threat-model sanity on a hierarchy: after an L1 flush the reload is
  // served by L2/DRAM and stays distinguishable from an L1 hit.
  cachesim::HierarchyConfig hcfg;
  hcfg.l1 = cachesim::CacheConfig::paper_default();
  cachesim::CacheConfig l2 = cachesim::CacheConfig::paper_default();
  l2.num_sets = 256;
  l2.hit_latency = 10;
  l2.miss_latency = 40;
  hcfg.l2 = l2;
  cachesim::CacheHierarchy hierarchy{hcfg};

  const gift::TableLayout layout;
  (void)hierarchy.access(layout.sbox_row_addr(3));
  const auto hit = hierarchy.access(layout.sbox_row_addr(3));
  EXPECT_EQ(hit.level, cachesim::HitLevel::kL1);
  hierarchy.l1().flush_line(layout.sbox_row_addr(3));
  const auto l2_hit = hierarchy.access(layout.sbox_row_addr(3));
  EXPECT_EQ(l2_hit.level, cachesim::HitLevel::kL2);
  EXPECT_GT(l2_hit.latency, hit.latency);
}

TEST(Integration, EffortStatisticsMatchPaperScale) {
  // Distributional check over several keys: the first-round attack on the
  // paper-default platform lands in the ~40..300 encryption range (paper:
  // ~96), never drops out, and the full key stays under 400 on average.
  Xoshiro256 rng{7};
  SampleStats first_round;
  SampleStats full_key;
  for (int t = 0; t < 8; ++t) {
    const Key128 key = rng.key128();
    target::Gift64Platform platform{target::Gift64Platform::Config{}, key};
    attack::GrinchConfig acfg;
    acfg.seed = rng.next();
    attack::GrinchAttack attack{platform, acfg};
    const auto r = attack.run();
    ASSERT_TRUE(r.success);
    full_key.add(static_cast<double>(r.total_encryptions));
    first_round.add(static_cast<double>(r.stages[0].encryptions));
  }
  EXPECT_GT(first_round.mean(), 30.0);
  EXPECT_LT(first_round.mean(), 300.0);
  EXPECT_LT(full_key.mean(), 400.0);
}

}  // namespace
}  // namespace grinch
