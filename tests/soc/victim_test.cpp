#include "soc/victim.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gift/gift64.h"

namespace grinch::soc {
namespace {

struct Fixture {
  gift::TableGift64 cipher;
  cachesim::Cache cache{cachesim::CacheConfig::paper_default()};
  VictimCostModel cost;
  VictimProcess victim{cipher, cache, cost};
};

TEST(Victim, CiphertextMatchesReference) {
  Fixture f;
  Xoshiro256 rng{1};
  const Key128 key = rng.key128();
  const std::uint64_t pt = rng.block64();
  f.victim.begin_encryption(pt, key);
  EXPECT_EQ(f.victim.finish(), gift::Gift64::encrypt(pt, key));
}

TEST(Victim, RunsExactlyTwentyEightRounds) {
  Fixture f;
  Xoshiro256 rng{2};
  f.victim.begin_encryption(rng.block64(), rng.key128());
  unsigned rounds = 0;
  while (!f.victim.done()) {
    f.victim.run_until_round(f.victim.rounds_done() + 1);
    ++rounds;
  }
  EXPECT_EQ(rounds, gift::Gift64::kRounds);
  EXPECT_EQ(f.victim.trace().size(), 28u * 32u);
}

TEST(Victim, RoundAccessesTouchTheCache) {
  Fixture f;
  Xoshiro256 rng{3};
  f.victim.begin_encryption(rng.block64(), rng.key128());
  f.victim.run_until_round(1);
  EXPECT_EQ(f.cache.stats().accesses, 32u);
  // Round 2 re-touches mostly cached lines: hits must appear.
  f.victim.run_until_round(2);
  EXPECT_GT(f.cache.stats().hits, 0u);
}

TEST(Victim, CyclesAdvanceMonotonically) {
  Fixture f;
  Xoshiro256 rng{4};
  f.victim.begin_encryption(rng.block64(), rng.key128());
  std::uint64_t prev = f.victim.now();
  while (!f.victim.done()) {
    const std::uint64_t t =
        f.victim.run_until_round(f.victim.rounds_done() + 1);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Victim, TraceTimestampsAreOrdered) {
  Fixture f;
  Xoshiro256 rng{5};
  f.victim.begin_encryption(rng.block64(), rng.key128());
  f.victim.finish();
  const auto& trace = f.victim.trace();
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].cycle, trace[i - 1].cycle);
  }
}

TEST(Victim, RunUntilCycleStopsMidRound) {
  Fixture f;
  Xoshiro256 rng{6};
  f.victim.begin_encryption(rng.block64(), rng.key128());
  // Stop after roughly half a round's accesses worth of cycles.
  const std::uint64_t limit =
      16 * (f.cost.cycles_per_access_setup + f.cache.config().miss_latency);
  f.victim.run_until_cycle(limit);
  EXPECT_EQ(f.victim.rounds_done(), 0u);
  EXPECT_GT(f.victim.accesses_into_round(), 0u);
  EXPECT_LT(f.victim.accesses_into_round(), 32u);
  // Resuming still produces the right ciphertext.
  EXPECT_EQ(f.victim.finish(), f.victim.full_ciphertext());
}

TEST(Victim, RunUntilRoundIsIdempotent) {
  Fixture f;
  Xoshiro256 rng{7};
  f.victim.begin_encryption(rng.block64(), rng.key128());
  f.victim.run_until_round(5);
  const std::uint64_t t = f.victim.now();
  f.victim.run_until_round(5);
  EXPECT_EQ(f.victim.now(), t);
  EXPECT_EQ(f.victim.rounds_done(), 5u);
}

TEST(Victim, PaperCalibratedRoundCostIsAbout65k) {
  gift::TableGift64 cipher;
  cachesim::Cache cache{cachesim::CacheConfig::paper_default()};
  VictimProcess victim{cipher, cache, VictimCostModel::paper_calibrated()};
  Xoshiro256 rng{8};
  victim.begin_encryption(rng.block64(), rng.key128());
  victim.finish();
  const double cpr = victim.cycles_per_round();
  // Calibration target: ~65k cycles/round => ~1.3 ms between rounds at
  // 50 MHz, the paper reports "about 1.2 milliseconds" (§IV-B3).
  EXPECT_GT(cpr, 60000.0);
  EXPECT_LT(cpr, 70000.0);
}

TEST(Victim, BeginEncryptionResetsState) {
  Fixture f;
  Xoshiro256 rng{9};
  f.victim.begin_encryption(rng.block64(), rng.key128());
  f.victim.finish();
  const Key128 key2 = rng.key128();
  const std::uint64_t pt2 = rng.block64();
  f.victim.begin_encryption(pt2, key2, 1000);
  EXPECT_EQ(f.victim.rounds_done(), 0u);
  EXPECT_EQ(f.victim.now(), 1000u);
  EXPECT_TRUE(f.victim.trace().empty());
  EXPECT_EQ(f.victim.finish(), gift::Gift64::encrypt(pt2, key2));
}

}  // namespace
}  // namespace grinch::soc
