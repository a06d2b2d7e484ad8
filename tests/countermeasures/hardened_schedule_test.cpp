#include "countermeasures/hardened_schedule.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gift/gift64.h"
#include "gift/table_gift.h"
#include "target/gift64_recovery.h"

namespace grinch::cm {
namespace {

TEST(Hardened, EncryptDecryptRoundTrip) {
  Xoshiro256 rng{1};
  for (int i = 0; i < 50; ++i) {
    const Key128 key = rng.key128();
    const std::uint64_t pt = rng.block64();
    EXPECT_EQ(HardenedGift64::decrypt(HardenedGift64::encrypt(pt, key), key),
              pt);
  }
}

TEST(Hardened, DiffersFromStandardGift) {
  Xoshiro256 rng{2};
  const Key128 key = rng.key128();
  const std::uint64_t pt = rng.block64();
  EXPECT_NE(HardenedGift64::encrypt(pt, key), gift::Gift64::encrypt(pt, key));
}

TEST(Hardened, RoundKeysAreWhitened) {
  Xoshiro256 rng{3};
  const Key128 key = rng.key128();
  const auto hardened = hardened_round_keys(key, 4);
  const gift::KeySchedule sched{key, 4};
  for (unsigned r = 0; r < 4; ++r) {
    const gift::RoundKey64 std_rk = sched.round_key64(r);
    EXPECT_TRUE(hardened[r].u != std_rk.u || hardened[r].v != std_rk.v)
        << "round " << r;
  }
}

TEST(Hardened, WhiteningDependsOnUnusedBits) {
  // Flipping a bit in the unused half (k7..k4) must change the digest —
  // that is the paper's "bits that were not used yet" requirement.
  Xoshiro256 rng{4};
  const Key128 key = rng.key128();
  const std::uint32_t base = whitening_digest(key);
  bool any_change = false;
  for (unsigned pos = 64; pos < 128; pos += 7) {
    any_change |= whitening_digest(key.with_bit(pos, key.bit(pos) ^ 1u)) != base;
  }
  EXPECT_TRUE(any_change);
}

TEST(Hardened, WhiteningIsNonLinear) {
  // digest(a) ^ digest(b) != digest(a^b) ^ digest(0) for some a,b —
  // otherwise the attacker could invert the whitening linearly.
  Xoshiro256 rng{5};
  bool nonlinear = false;
  const std::uint32_t d0 = whitening_digest(Key128{});
  for (int i = 0; i < 32 && !nonlinear; ++i) {
    const Key128 a = rng.key128();
    const Key128 b = rng.key128();
    const std::uint32_t lhs = whitening_digest(a) ^ whitening_digest(b);
    const std::uint32_t rhs = whitening_digest(a ^ b) ^ d0;
    nonlinear = (lhs != rhs);
  }
  EXPECT_TRUE(nonlinear);
}

TEST(Hardened, EffectiveSubKeysDoNotAssembleToMasterKey) {
  // The heart of countermeasure 2: even a perfect recovery of all four
  // effective round keys yields a wrong master key.
  Xoshiro256 rng{6};
  const Key128 key = rng.key128();
  const auto effective = hardened_round_keys(key, 4);
  const Key128 assembled =
      target::Gift64Recovery::assemble_master_key(effective);
  EXPECT_NE(assembled, key);
  // And that wrong key does not reproduce the hardened ciphertext either.
  const std::uint64_t pt = rng.block64();
  EXPECT_NE(HardenedGift64::encrypt(pt, assembled),
            HardenedGift64::encrypt(pt, key));
}

TEST(Hardened, ProviderMatchesReferenceImplementation) {
  // The instrumented table loop on the hardened schedule, as leakcheck's
  // gift64-hardened-schedule target runs it.  A null TraceSink* runs that
  // loop without recording; the default NullSink would run the reference
  // round that HardenedGift64::encrypt runs too.
  const gift::TableGift64 victim;
  Xoshiro256 rng{7};
  for (int i = 0; i < 20; ++i) {
    const Key128 key = rng.key128();
    const std::uint64_t pt = rng.block64();
    EXPECT_EQ(victim.encrypt_with_schedule(
                  pt, hardened_round_keys(key, gift::Gift64::kRounds),
                  gift::Gift64::kRounds,
                  static_cast<gift::TraceSink*>(nullptr)),
              HardenedGift64::encrypt(pt, key));
  }
}

}  // namespace
}  // namespace grinch::cm
