// Tests for the PRESENT-80 target (generic platform observation + engine
// recovery; ported from the pre-unification attack-stack tests).
#include "target/present80_recovery.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "present/present.h"
#include "target/platform.h"
#include "target/registry.h"

namespace grinch::target {
namespace {

Key128 random_key80(Xoshiro256& rng) {
  return Present80Recovery::canonical_key(rng.key128());
}

/// RK0 of `key`: key-register bits 79..16.
std::uint64_t rk0_of(const Key128& key) {
  return (key.hi << 48) | (key.lo >> 16);
}

TEST(PresentPlatform, RoundZeroObservationIsKeyDependent) {
  Xoshiro256 rng{1};
  const Key128 key = random_key80(rng);
  DirectProbePlatform<Present80Recovery> platform{{}, key};
  const std::uint64_t pt = rng.block64();
  const Observation obs = platform.observe(pt, 0);
  // Ground truth: round 0 indices are nibbles of pt XOR RK0.
  LineSet expected(16);
  for (unsigned s = 0; s < 16; ++s) {
    expected[nibble(pt ^ rk0_of(key), s)] = true;
  }
  EXPECT_EQ(obs.present, expected);
}

TEST(PresentPlatform, CiphertextIsReal) {
  Xoshiro256 rng{2};
  const Key128 key = random_key80(rng);
  DirectProbePlatform<Present80Recovery> platform{{}, key};
  const std::uint64_t pt = rng.block64();
  (void)platform.observe(pt, 0);
  EXPECT_EQ(platform.last_ciphertext(), present::Present80::encrypt(pt, key));
}

TEST(Present80Recovery, RecoversFullEightyBitKey) {
  Xoshiro256 rng{3};
  for (int trial = 0; trial < 3; ++trial) {
    const Key128 key = random_key80(rng);
    KeyRecoveryEngine<Present80Recovery>::Config cfg;
    cfg.seed = 100 + static_cast<std::uint64_t>(trial);
    const RecoveryResult<Present80Recovery> r =
        recover_key<Present80Recovery>(key, cfg);
    ASSERT_TRUE(r.success) << "trial " << trial;
    EXPECT_EQ(r.recovered_key, key);
    EXPECT_TRUE(r.stages_resolved);
    EXPECT_EQ(r.offline_trials, 1u << 16);
    // Far cheaper than GIFT: no crafting, round-0 leak, joint segments.
    EXPECT_LT(r.total_encryptions, 100u);
  }
}

TEST(Present80Recovery, RoundKeyZeroMatchesSchedule) {
  Xoshiro256 rng{4};
  const Key128 key = random_key80(rng);
  const RecoveryResult<Present80Recovery> r =
      recover_key<Present80Recovery>(key);
  ASSERT_TRUE(r.stages_resolved);
  EXPECT_EQ(r.stage_keys[0], rk0_of(key));
}

TEST(Present80Recovery, DropoutOnTinyBudget) {
  Xoshiro256 rng{5};
  const Key128 key = random_key80(rng);
  KeyRecoveryEngine<Present80Recovery>::Config cfg;
  cfg.max_encryptions = 2;
  const RecoveryResult<Present80Recovery> r =
      recover_key<Present80Recovery>(key, cfg);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.stages_resolved);
}

// The 2^16 search over key bits 15..0. The recoveries above draw random
// keys, so these pin its edges: the first candidate, the one after it,
// the top bit and the last candidate, plus two random positions.
std::vector<Key128> keys_at_search_edges() {
  Xoshiro256 rng{0x5EA5};
  std::vector<Key128> keys;
  for (const std::uint64_t low :
       {std::uint64_t{0x0000}, std::uint64_t{0x0001}, std::uint64_t{0x8000},
        std::uint64_t{0xFFFF}, rng.uniform(1u << 16), rng.uniform(1u << 16)}) {
    Key128 key = random_key80(rng);
    key.lo = (key.lo & ~std::uint64_t{0xFFFF}) | low;
    keys.push_back(key);
  }
  return keys;
}

/// finalize() given `rk0` against one pair encrypted under `key`.
RecoveryResult<Present80Recovery> finalize_with(const Key128& key,
                                                std::uint64_t rk0) {
  DirectProbePlatform<Present80Recovery> platform{{}, key};
  Xoshiro256 rng{0xF1};
  RecoveryResult<Present80Recovery> r;
  r.stage_keys = {rk0};
  const std::uint64_t pt = 0x0123456789ABCDEFull;
  Present80Recovery::finalize(r, platform, rng, pt,
                              present::Present80::encrypt(pt, key));
  return r;
}

TEST(Present80Search, FinalizeRecoversEveryLowHalf) {
  for (const Key128& key : keys_at_search_edges()) {
    const RecoveryResult<Present80Recovery> r = finalize_with(key, rk0_of(key));
    EXPECT_TRUE(r.success) << "key " << key.to_hex();
    EXPECT_TRUE(r.key_verified) << "key " << key.to_hex();
    EXPECT_EQ(r.recovered_key, key);
    EXPECT_EQ(r.offline_trials, 1u << 16);
  }
}

TEST(Present80Search, FinalizeFailsOnWrongRoundKey) {
  const Key128 key = keys_at_search_edges()[4];
  for (const unsigned bit : {0u, 63u}) {
    const RecoveryResult<Present80Recovery> r =
        finalize_with(key, flip_bit(rk0_of(key), bit));
    EXPECT_FALSE(r.success) << "RK0 bit " << bit;
    EXPECT_FALSE(r.key_verified) << "RK0 bit " << bit;
    EXPECT_EQ(r.offline_trials, 1u << 16);
  }
}

/// Two known pairs under `key`: the first filters, the second confirms.
struct TwoPairs {
  std::array<std::uint64_t, 2> pts{0x0123456789ABCDEFull,
                                   0xFEDCBA9876543210ull};
  std::array<std::uint64_t, 2> cts{};
  explicit TwoPairs(const Key128& key) {
    for (std::size_t i = 0; i < 2; ++i) {
      cts[i] = present::Present80::encrypt(pts[i], key);
    }
  }
};

TEST(Present80Search, FinisherVerifyCountsEveryTrial) {
  for (const Key128& key : keys_at_search_edges()) {
    const TwoPairs pairs{key};
    const std::array<std::uint64_t, 1> stage_keys{rk0_of(key)};
    Key128 found;
    std::uint64_t trials = 0;
    ASSERT_TRUE(Present80Recovery::finisher_verify(stage_keys, pairs.pts,
                                                   pairs.cts, found, trials))
        << "key " << key.to_hex();
    EXPECT_EQ(found, key);
    // One trial per candidate up to and including the key's low half,
    // plus one for the confirming pair.
    EXPECT_EQ(trials, (key.lo & 0xFFFF) + 2) << "key " << key.to_hex();
  }
}

TEST(Present80Search, FinisherVerifyRejectsWrongRoundKey) {
  const Key128 key = keys_at_search_edges()[5];
  const TwoPairs pairs{key};
  const std::array<std::uint64_t, 1> stage_keys{flip_bit(rk0_of(key), 31)};
  Key128 found;
  std::uint64_t trials = 0;
  EXPECT_FALSE(Present80Recovery::finisher_verify(stage_keys, pairs.pts,
                                                  pairs.cts, found, trials));
  EXPECT_EQ(trials, 1u << 16);
}

TEST(Present80Recovery, WiderProbeWindowStillSucceeds) {
  // Later probing accumulates more rounds of accesses (noise), raising
  // effort but not defeating the attack.
  Xoshiro256 rng{6};
  const Key128 key = random_key80(rng);
  DirectProbePlatform<Present80Recovery>::Config pcfg;
  pcfg.probing_round = 3;
  const RecoveryResult<Present80Recovery> r =
      recover_key<Present80Recovery>(key, {}, pcfg);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.recovered_key, key);
}

}  // namespace
}  // namespace grinch::target
