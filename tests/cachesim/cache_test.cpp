#include "cachesim/cache.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace grinch::cachesim {
namespace {

CacheConfig small_config() {
  CacheConfig c;
  c.line_bytes = 4;
  c.num_sets = 4;
  c.associativity = 2;
  return c;
}

TEST(CacheConfig, PaperDefaultGeometry) {
  const CacheConfig c = CacheConfig::paper_default();
  EXPECT_EQ(c.line_bytes, 1u);
  EXPECT_EQ(c.num_sets, 64u);
  EXPECT_EQ(c.associativity, 16u);
  EXPECT_EQ(c.total_lines(), 1024u);  // the paper's 1024-line shared L1
  EXPECT_NO_THROW(c.validate());
}

TEST(CacheConfig, ValidateRejectsBadGeometry) {
  CacheConfig c = small_config();
  c.line_bytes = 3;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.num_sets = 5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.associativity = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.miss_latency = c.hit_latency;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.replacement = Replacement::kPlru;
  c.associativity = 3;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Cache, FirstAccessMissesSecondHits) {
  Cache cache{small_config()};
  const AccessResult r1 = cache.access(0x100);
  EXPECT_FALSE(r1.hit);
  EXPECT_EQ(r1.latency, cache.config().miss_latency);
  const AccessResult r2 = cache.access(0x100);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(r2.latency, cache.config().hit_latency);
}

TEST(Cache, SameLineDifferentByteHits) {
  Cache cache{small_config()};  // 4-byte lines
  (void)cache.access(0x100);
  EXPECT_TRUE(cache.access(0x103).hit);
  EXPECT_FALSE(cache.access(0x104).hit);  // next line
}

TEST(Cache, SetIndexingFollowsGeometry) {
  Cache cache{small_config()};  // 4B lines, 4 sets
  EXPECT_EQ(cache.set_index(0x0), 0u);
  EXPECT_EQ(cache.set_index(0x4), 1u);
  EXPECT_EQ(cache.set_index(0x8), 2u);
  EXPECT_EQ(cache.set_index(0xC), 3u);
  EXPECT_EQ(cache.set_index(0x10), 0u);  // wraps
}

TEST(Cache, LineBaseMasksOffset) {
  Cache cache{small_config()};
  EXPECT_EQ(cache.line_base(0x107), 0x104u);
  EXPECT_EQ(cache.line_base(0x104), 0x104u);
}

TEST(Cache, EvictionHappensWhenSetIsFull) {
  Cache cache{small_config()};  // 2-way
  // Three distinct tags in set 0 (stride = line_bytes * num_sets = 16).
  (void)cache.access(0x00);
  (void)cache.access(0x10);
  const AccessResult r = cache.access(0x20);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache cache{small_config()};
  (void)cache.access(0x00);
  (void)cache.access(0x10);
  (void)cache.access(0x00);  // refresh 0x00: LRU is now 0x10
  const AccessResult r = cache.access(0x20);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line_addr, 0x10u);
  EXPECT_TRUE(cache.contains(0x00));
  EXPECT_FALSE(cache.contains(0x10));
}

TEST(Cache, FifoIgnoresHits) {
  CacheConfig cfg = small_config();
  cfg.replacement = Replacement::kFifo;
  Cache cache{cfg};
  (void)cache.access(0x00);
  (void)cache.access(0x10);
  (void)cache.access(0x00);  // hit does not refresh under FIFO
  const AccessResult r = cache.access(0x20);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line_addr, 0x00u);  // oldest fill evicted
}

TEST(Cache, EvictedAddressReconstructsLineBase) {
  Cache cache{small_config()};
  (void)cache.access(0x34);  // set 1
  (void)cache.access(0x44);  // set 1
  const AccessResult r = cache.access(0x54);  // set 1, evicts 0x34's line
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line_addr, 0x34u & ~0x3ull);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache cache{small_config()};
  (void)cache.access(0x00);
  (void)cache.access(0x10);
  EXPECT_EQ(cache.valid_lines(), 2u);
  cache.flush();
  EXPECT_EQ(cache.valid_lines(), 0u);
  EXPECT_FALSE(cache.contains(0x00));
  EXPECT_EQ(cache.stats().full_flushes, 1u);
}

TEST(Cache, FlushLineIsTargeted) {
  Cache cache{small_config()};
  (void)cache.access(0x00);
  (void)cache.access(0x04);
  EXPECT_TRUE(cache.flush_line(0x00));
  EXPECT_FALSE(cache.contains(0x00));
  EXPECT_TRUE(cache.contains(0x04));
  EXPECT_FALSE(cache.flush_line(0x00));  // already gone
}

TEST(Cache, ContainsDoesNotMutate) {
  Cache cache{small_config()};
  (void)cache.access(0x00);
  const CacheStats before = cache.stats();
  (void)cache.contains(0x00);
  (void)cache.contains(0x40);
  EXPECT_EQ(cache.stats().accesses, before.accesses);
  EXPECT_EQ(cache.stats().hits, before.hits);
}

TEST(Cache, StatsAccumulateAndClear) {
  Cache cache{small_config()};
  (void)cache.access(0x00);
  (void)cache.access(0x00);
  (void)cache.access(0x40);
  EXPECT_EQ(cache.stats().accesses, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NEAR(cache.stats().hit_rate(), 1.0 / 3, 1e-9);
  cache.clear_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
}

TEST(Cache, PaperDefaultMapsSBoxRowsToDistinctSets) {
  // With 1-byte lines and 64 sets, the 16 S-Box rows at 0x1000.. occupy 16
  // distinct sets — the precondition for clean Flush+Reload in Fig. 3.
  Cache cache{CacheConfig::paper_default()};
  std::set<std::uint64_t> sets;
  for (unsigned i = 0; i < 16; ++i) sets.insert(cache.set_index(0x1000 + i));
  EXPECT_EQ(sets.size(), 16u);
}

// ---- Parameterised sweep: the invariant hit-after-fill holds for every
// ---- geometry and policy combination.

struct GeometryParam {
  unsigned line_bytes;
  unsigned sets;
  unsigned ways;
  Replacement policy;
  // gtest names each case by dumping this struct's bytes. Spelling out the
  // tail padding keeps it zero, so the names do not change from run to run.
  std::uint8_t padding[3] = {};
};

class CacheGeometry : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(CacheGeometry, FillThenHitInvariant) {
  const GeometryParam p = GetParam();
  CacheConfig cfg;
  cfg.line_bytes = p.line_bytes;
  cfg.num_sets = p.sets;
  cfg.associativity = p.ways;
  cfg.replacement = p.policy;
  Cache cache{cfg};
  Xoshiro256 rng{p.line_bytes * 131u + p.sets * 17u + p.ways};
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t addr = rng.uniform(1 << 16);
    (void)cache.access(addr);
    EXPECT_TRUE(cache.contains(addr)) << "addr " << addr;
    EXPECT_TRUE(cache.access(addr).hit);
  }
}

TEST_P(CacheGeometry, ValidLinesNeverExceedCapacity) {
  const GeometryParam p = GetParam();
  CacheConfig cfg;
  cfg.line_bytes = p.line_bytes;
  cfg.num_sets = p.sets;
  cfg.associativity = p.ways;
  cfg.replacement = p.policy;
  Cache cache{cfg};
  Xoshiro256 rng{42};
  for (int i = 0; i < 2000; ++i) {
    (void)cache.access(rng.uniform(1 << 18));
    ASSERT_LE(cache.valid_lines(), cfg.total_lines());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Values(
        GeometryParam{1, 64, 16, Replacement::kLru},   // paper default
        GeometryParam{2, 64, 16, Replacement::kLru},   // Table I rows
        GeometryParam{4, 64, 16, Replacement::kLru},
        GeometryParam{8, 64, 16, Replacement::kLru},
        GeometryParam{64, 64, 8, Replacement::kLru},   // desktop-like
        GeometryParam{1, 64, 16, Replacement::kFifo},
        GeometryParam{1, 64, 16, Replacement::kPlru},
        GeometryParam{1, 64, 16, Replacement::kRandom},
        GeometryParam{4, 16, 1, Replacement::kLru},    // direct-mapped
        GeometryParam{4, 1, 16, Replacement::kPlru},   // fully associative
        GeometryParam{32, 128, 4, Replacement::kFifo},
        GeometryParam{16, 32, 2, Replacement::kRandom}));

}  // namespace
}  // namespace grinch::cachesim
