// Memory-hierarchy attack tests (§V future work of the paper).
#include "soc/hierarchy_platform.h"

#include <gtest/gtest.h>

#include <vector>

#include "attack/grinch.h"
#include "common/bits.h"
#include "common/rng.h"
#include "gift/gift64.h"

namespace grinch::soc {
namespace {

TEST(HierarchyPlatform, CleanObservationMatchesMonitoredRound) {
  Xoshiro256 rng{1};
  const Key128 key = rng.key128();
  HierarchyPlatform platform{HierarchyPlatform::Config{}, key};
  const std::uint64_t pt = rng.block64();
  const target::Observation obs = platform.observe(pt, 0);

  const auto states = gift::Gift64::round_states(pt, key);
  target::LineSet expected(16);
  for (unsigned s = 0; s < 16; ++s) expected[nibble(states[1], s)] = true;
  EXPECT_EQ(obs.present, expected);
}

TEST(HierarchyPlatform, L1EvictOnlyStillDistinguishes) {
  Xoshiro256 rng{2};
  const Key128 key = rng.key128();
  HierarchyPlatform::Config cfg;
  cfg.flush = FlushCapability::kL1EvictOnly;
  HierarchyPlatform platform{cfg, key};
  // Warm-up observation fills L2 with the monitored lines; the second
  // observation is the telling one (untouched lines answer from L2, not
  // DRAM, and must still read as absent).
  (void)platform.observe(rng.block64(), 0);
  const std::uint64_t pt = rng.block64();
  const target::Observation obs = platform.observe(pt, 0);

  const auto states = gift::Gift64::round_states(pt, key);
  target::LineSet expected(16);
  for (unsigned s = 0; s < 16; ++s) expected[nibble(states[1], s)] = true;
  EXPECT_EQ(obs.present, expected);
}

TEST(HierarchyPlatform, FullAttackThroughTheHierarchy) {
  Xoshiro256 rng{3};
  const Key128 key = rng.key128();
  for (FlushCapability cap :
       {FlushCapability::kClflush, FlushCapability::kL1EvictOnly}) {
    HierarchyPlatform::Config cfg;
    cfg.flush = cap;
    HierarchyPlatform platform{cfg, key};
    attack::GrinchConfig acfg;
    acfg.seed = 31;
    attack::GrinchAttack attack{platform, acfg};
    const auto r = attack.run();
    ASSERT_TRUE(r.success) << "capability " << static_cast<int>(cap);
    EXPECT_EQ(r.recovered_key, key);
    EXPECT_LT(r.total_encryptions, 500u);
  }
}

TEST(HierarchyPlatform, ObserveBatchBitIdenticalToScalar) {
  // HierarchyPlatform keeps ObservationSource's default batch loop.
  Xoshiro256 rng{5};
  const Key128 key = rng.key128();
  HierarchyPlatform scalar{HierarchyPlatform::Config{}, key};
  HierarchyPlatform batched{HierarchyPlatform::Config{}, key};
  std::vector<std::uint64_t> pts;
  for (unsigned i = 0; i < 6; ++i) pts.push_back(rng.block64());
  target::ObservationBatch batch;
  batched.observe_batch(pts, 0, batch);
  ASSERT_EQ(batch.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const target::Observation o = scalar.observe(pts[i], 0);
    EXPECT_EQ(batch[i].present, o.present) << i;
    EXPECT_EQ(batch[i].probed_after_round, o.probed_after_round);
    EXPECT_EQ(batch[i].attacker_cycles, o.attacker_cycles);
  }
  EXPECT_EQ(batched.last_ciphertext(), scalar.last_ciphertext());
}

TEST(HierarchyPlatform, SingleLevelConfigWorksToo) {
  Xoshiro256 rng{4};
  const Key128 key = rng.key128();
  HierarchyPlatform::Config cfg;
  cfg.hierarchy.l2.reset();
  HierarchyPlatform platform{cfg, key};
  attack::GrinchConfig acfg;
  acfg.stages = 1;
  acfg.seed = 41;
  attack::GrinchAttack attack{platform, acfg};
  const auto r = attack.run();
  ASSERT_TRUE(r.success);
  const gift::RoundKey64 truth = gift::extract_round_key64(key);
  EXPECT_EQ(r.round_keys[0].u, truth.u);
  EXPECT_EQ(r.round_keys[0].v, truth.v);
}

}  // namespace
}  // namespace grinch::soc
