// The GIFT-64 direct-probe platform: probe-round semantics, the line ids
// the attacker sees, and the probe options (precision probing, noise
// traffic and the noise address space; Prime+Probe and trace capture are
// pinned by tests/integration/probe_digest_test.cpp and the attack tests).
#include <gtest/gtest.h>

#include <vector>

#include "attack/grinch.h"
#include "common/bits.h"
#include "common/rng.h"
#include "gift/gift64.h"
#include "target/registry.h"

namespace grinch::target {
namespace {

// ---------------------------------------------------------- line ids --

TEST(IndexLineIds, OneWordLinesAreAllDistinct) {
  const gift::TableLayout layout;
  const auto ids = compute_index_line_ids(layout, 1);
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(ids[i], i);
}

TEST(IndexLineIds, FourWordLinesGroupByFour) {
  const gift::TableLayout layout;
  const auto ids = compute_index_line_ids(layout, 4);
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(ids[i], i / 4);
}

TEST(IndexLineIds, PackedCountermeasureWithEightByteLine) {
  // Countermeasure 1: 8 rows of 8 bits + 8-byte lines => the whole S-Box
  // occupies a single cache line; every index is indistinguishable.
  gift::TableLayout layout;
  layout.sbox_entries_per_row = 2;
  const auto ids = compute_index_line_ids(layout, 8);
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(ids[i], 0u);
}

// ----------------------------------------------- probe-round semantics --

TEST(DirectProbe, WithFlushObservesExactlyTheMonitoredRound) {
  Xoshiro256 rng{100};
  const Key128 key = rng.key128();
  Gift64Platform::Config cfg;
  cfg.probing_round = 1;
  cfg.use_flush = true;
  Gift64Platform platform{cfg, key};

  const std::uint64_t pt = rng.block64();
  const Observation obs = platform.observe(pt, /*stage=*/0);
  EXPECT_EQ(obs.probed_after_round, 2u);

  // Ground truth: the set of S-Box indices of cipher round 1.
  const auto states = gift::Gift64::round_states(pt, key);
  LineSet expected(16);
  for (unsigned s = 0; s < 16; ++s) expected[nibble(states[1], s)] = true;
  EXPECT_EQ(obs.present, expected);
}

TEST(DirectProbe, WithoutFlushIncludesRoundZeroDirt) {
  Xoshiro256 rng{101};
  const Key128 key = rng.key128();
  Gift64Platform::Config cfg;
  cfg.probing_round = 1;
  cfg.use_flush = false;
  Gift64Platform platform{cfg, key};

  const std::uint64_t pt = rng.block64();
  const Observation obs = platform.observe(pt, 0);

  const auto states = gift::Gift64::round_states(pt, key);
  LineSet expected(16);
  for (unsigned r = 0; r < 2; ++r) {  // rounds 0 and 1 accumulate
    for (unsigned s = 0; s < 16; ++s) expected[nibble(states[r], s)] = true;
  }
  EXPECT_EQ(obs.present, expected);
}

TEST(DirectProbe, LaterProbingAccumulatesMoreLines) {
  Xoshiro256 rng{102};
  const Key128 key = rng.key128();
  unsigned prev_count = 0;
  for (unsigned k : {1u, 3u, 6u}) {
    Gift64Platform::Config cfg;
    cfg.probing_round = k;
    Gift64Platform platform{cfg, key};
    const Observation obs = platform.observe(0x1234567812345678ull, 0);
    const unsigned count = obs.present.count();
    EXPECT_GE(count, prev_count) << "probing round " << k;
    prev_count = count;
  }
}

TEST(DirectProbe, CiphertextIsTheRealOne) {
  Xoshiro256 rng{103};
  const Key128 key = rng.key128();
  Gift64Platform platform{{}, key};
  const std::uint64_t pt = rng.block64();
  // The observation itself carries no ciphertext (the victim truncates at
  // the probe point); the published ciphertext is completed on demand.
  (void)platform.observe(pt, 0);
  EXPECT_EQ(platform.last_ciphertext(), gift::Gift64::encrypt(pt, key));
}

TEST(DirectProbe, StageShiftsTheMonitoredRound) {
  Xoshiro256 rng{104};
  const Key128 key = rng.key128();
  Gift64Platform::Config cfg;
  cfg.probing_round = 1;
  Gift64Platform platform{cfg, key};
  const std::uint64_t pt = rng.block64();
  const Observation obs = platform.observe(pt, /*stage=*/2);
  EXPECT_EQ(obs.probed_after_round, 4u);
  const auto states = gift::Gift64::round_states(pt, key);
  LineSet expected(16);
  for (unsigned s = 0; s < 16; ++s) expected[nibble(states[3], s)] = true;
  EXPECT_EQ(obs.present, expected);
}

TEST(DirectProbe, ObserveBatchBitIdenticalToScalar) {
  Xoshiro256 rng{113};
  const Key128 key = rng.key128();
  Gift64Platform scalar{{}, key};
  Gift64Platform batched{{}, key};
  for (unsigned stage = 0; stage < 2; ++stage) {
    std::vector<std::uint64_t> pts;
    for (unsigned i = 0; i < 6; ++i) pts.push_back(rng.block64());
    ObservationBatch batch;
    batched.observe_batch(pts, stage, batch);
    ASSERT_EQ(batch.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const Observation o = scalar.observe(pts[i], stage);
      EXPECT_EQ(batch[i].present, o.present) << "stage " << stage << " " << i;
      EXPECT_EQ(batch[i].probed_after_round, o.probed_after_round);
      EXPECT_EQ(batch[i].attacker_cycles, o.attacker_cycles);
      EXPECT_EQ(batch[i].sbox_hits, o.sbox_hits);
    }
    EXPECT_EQ(batched.last_ciphertext(), scalar.last_ciphertext());
  }
}

// --------------------------------------- precision probing and noise --

TEST(PreciseProbe, SeesOnlySegmentsUpToFocus) {
  Xoshiro256 rng{2};
  const Key128 key = rng.key128();
  Gift64Platform::Config cfg;
  cfg.precise_probe = true;
  Gift64Platform platform{cfg, key};
  const std::uint64_t pt = rng.block64();

  platform.focus_segment(0);
  const Observation obs = platform.observe(pt, 0);
  // Exactly the monitored round's segment-0 access is present.
  const auto states = gift::Gift64::round_states(pt, key);
  unsigned count = 0;
  for (unsigned i = 0; i < 16; ++i) count += obs.present[i];
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(obs.present[nibble(states[1], 0)]);
}

TEST(PreciseProbe, LaterFocusSeesMoreSegments) {
  Xoshiro256 rng{3};
  const Key128 key = rng.key128();
  Gift64Platform::Config cfg;
  cfg.precise_probe = true;
  Gift64Platform platform{cfg, key};
  const std::uint64_t pt = rng.block64();

  platform.focus_segment(15);
  const Observation obs = platform.observe(pt, 0);
  const auto states = gift::Gift64::round_states(pt, key);
  LineSet expected(16);
  for (unsigned s = 0; s < 16; ++s) expected[nibble(states[1], s)] = true;
  EXPECT_EQ(obs.present, expected);
}

TEST(PreciseProbe, AttackConvergesFasterThanRoundBoundary) {
  Xoshiro256 rng{4};
  const Key128 key = rng.key128();
  attack::GrinchConfig acfg;
  acfg.stages = 1;
  acfg.seed = 99;

  Gift64Platform::Config precise_cfg;
  precise_cfg.precise_probe = true;
  Gift64Platform precise{precise_cfg, key};
  attack::GrinchAttack a1{precise, acfg};
  const auto r1 = a1.run();

  Gift64Platform coarse{{}, key};
  attack::GrinchAttack a2{coarse, acfg};
  const auto r2 = a2.run();

  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_LT(r1.total_encryptions, r2.total_encryptions);
  const gift::RoundKey64 expected = gift::extract_round_key64(key);
  EXPECT_EQ(r1.round_keys[0].u, expected.u);
  EXPECT_EQ(r1.round_keys[0].v, expected.v);
}

TEST(Noise, VotedEliminationRecoversCorrectKeyUnderModerateTraffic) {
  // At moderate eviction noise (≈0.5-3% false-absent rate) hard
  // elimination occasionally mis-converges; the absent-vote threshold
  // suppresses that.
  Xoshiro256 rng{5};
  const Key128 key = rng.key128();
  Gift64Platform::Config cfg;
  cfg.noise_accesses_per_round = 512;
  Gift64Platform platform{cfg, key};
  attack::GrinchConfig acfg;
  acfg.stages = 1;
  acfg.max_encryptions = 50000;
  acfg.seed = 55;
  acfg.elimination_threshold = 3;
  attack::GrinchAttack attack{platform, acfg};
  const auto r = attack.run();
  ASSERT_TRUE(r.success);
  const gift::RoundKey64 expected = gift::extract_round_key64(key);
  EXPECT_EQ(r.round_keys[0].u, expected.u);
  EXPECT_EQ(r.round_keys[0].v, expected.v);
}

TEST(Noise, StatisticalEliminationSurvivesHeavyTraffic) {
  // At ~37% false-absent rate no elimination-on-absence can stay correct
  // across 16 segments; the maximum-likelihood mode compares absent
  // *rates* (the true candidate always has the lowest) and recovers the
  // right key.
  Xoshiro256 rng{52};
  const Key128 key = rng.key128();
  Gift64Platform::Config cfg;
  cfg.noise_accesses_per_round = 1024;
  Gift64Platform platform{cfg, key};
  attack::GrinchConfig acfg;
  acfg.stages = 1;
  acfg.max_encryptions = 50000;
  acfg.seed = 56;
  acfg.statistical_elimination = true;
  attack::GrinchAttack attack{platform, acfg};
  const auto r = attack.run();
  ASSERT_TRUE(r.success);
  const gift::RoundKey64 expected = gift::extract_round_key64(key);
  EXPECT_EQ(r.round_keys[0].u, expected.u);
  EXPECT_EQ(r.round_keys[0].v, expected.v);
}

TEST(Noise, HardEliminationCanMisconvergeUnderHeavyTraffic) {
  // Documents the failure mode the voted mode exists for: with heavy
  // eviction noise, threshold-1 elimination either mis-recovers or drops
  // out — it must not be trusted blindly on noisy platforms.
  Xoshiro256 rng{51};
  const Key128 key = rng.key128();
  Gift64Platform::Config cfg;
  cfg.noise_accesses_per_round = 2048;
  Gift64Platform platform{cfg, key};
  attack::GrinchConfig acfg;
  acfg.stages = 1;
  acfg.max_encryptions = 50000;
  acfg.seed = 55;
  attack::GrinchAttack attack{platform, acfg};
  const auto r = attack.run();
  const gift::RoundKey64 expected = gift::extract_round_key64(key);
  const bool correct = r.success && r.round_keys.size() == 1 &&
                       r.round_keys[0].u == expected.u &&
                       r.round_keys[0].v == expected.v;
  const bool noisy_run = !r.success || r.stages[0].noise_restarts > 0;
  EXPECT_TRUE(!correct || noisy_run);
}

TEST(Noise, NeverCreatesFalsePresences) {
  // The noise address space is disjoint from the S-Box table: under
  // Flush+Reload it can evict lines (false absents) but never make an
  // untouched line look touched.
  Xoshiro256 rng{6};
  const Key128 key = rng.key128();
  Gift64Platform::Config cfg;
  cfg.noise_accesses_per_round = 4096;
  Gift64Platform platform{cfg, key};
  const std::uint64_t pt = rng.block64();
  const Observation obs = platform.observe(pt, 0);
  const auto states = gift::Gift64::round_states(pt, key);
  std::vector<bool> touched(16, false);
  for (unsigned s = 0; s < 16; ++s) touched[nibble(states[1], s)] = true;
  for (unsigned i = 0; i < 16; ++i) {
    if (obs.present[i]) EXPECT_TRUE(touched[i]) << "index " << i;
  }
}

TEST(Noise, DeterministicAcrossIdenticalPlatforms) {
  Xoshiro256 rng{7};
  const Key128 key = rng.key128();
  Gift64Platform::Config cfg;
  cfg.noise_accesses_per_round = 512;
  Gift64Platform p1{cfg, key};
  Gift64Platform p2{cfg, key};
  const std::uint64_t pt = rng.block64();
  EXPECT_EQ(p1.observe(pt, 0).present, p2.observe(pt, 0).present);
}

// ------------------------------------------------------- NoiseAddressSpace --
// The noise region (target/fault_model.h) is documented to behave exactly
// like the fault vocabulary's false-absent mode: it must alias every
// monitored cache set (so traffic can evict monitored lines) while staying
// disjoint from both the victim's tables (no fake presences) and the
// Prime+Probe eviction-set region (no self-eviction of the attacker).

TEST(NoiseAddressSpace, StartsAboveEveryVictimTable) {
  const gift::TableLayout layout;
  const std::uint64_t sbox_end =
      layout.sbox_base + layout.sbox_rows() * layout.sbox_row_bytes;
  const std::uint64_t perm_end =
      layout.perm_base + 16ull * 16ull * layout.perm_row_bytes;
  EXPECT_GE(NoiseAddressSpace::kBase, sbox_end);
  EXPECT_GE(NoiseAddressSpace::kBase, perm_end);
}

TEST(NoiseAddressSpace, SpanAliasesEveryCacheSet) {
  // Walk the region line by line: all sets must be covered, each with
  // kWaysCovered distinct tags (enough to displace any associativity in
  // use from every set).
  const cachesim::CacheConfig cfg = cachesim::CacheConfig::paper_default();
  cachesim::Cache cache{cfg};
  const std::uint64_t span = NoiseAddressSpace::span(cfg);
  std::vector<unsigned> lines_per_set(cfg.num_sets, 0);
  for (std::uint64_t a = NoiseAddressSpace::kBase;
       a < NoiseAddressSpace::kBase + span; a += cfg.line_bytes) {
    ++lines_per_set[cache.set_index(a)];
  }
  for (unsigned s = 0; s < cfg.num_sets; ++s) {
    EXPECT_EQ(lines_per_set[s], NoiseAddressSpace::kWaysCovered)
        << "set " << s;
    EXPECT_GE(lines_per_set[s], cfg.associativity) << "set " << s;
  }
}

TEST(NoiseAddressSpace, EndsBelowThePrimeProbeRegion) {
  // PrimeProbeProber builds its eviction sets from 0x4000000 up; noise
  // traffic must never masquerade as the attacker's priming lines.
  const cachesim::CacheConfig cfg = cachesim::CacheConfig::paper_default();
  EXPECT_LT(NoiseAddressSpace::kBase +
                NoiseAddressSpace::span(cfg),
            0x4000000u);
}

TEST(NoiseAddressSpace, DrawStaysInsideTheRegion) {
  const cachesim::CacheConfig cfg = cachesim::CacheConfig::paper_default();
  const std::uint64_t span = NoiseAddressSpace::span(cfg);
  Xoshiro256 rng{8};
  for (unsigned i = 0; i < 4096; ++i) {
    const std::uint64_t a = NoiseAddressSpace::draw(cfg, rng);
    EXPECT_GE(a, NoiseAddressSpace::kBase);
    EXPECT_LT(a, NoiseAddressSpace::kBase + span);
  }
}

}  // namespace
}  // namespace grinch::target
