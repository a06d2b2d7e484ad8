// Differential validation of the cache simulator against an independent,
// deliberately naive reference model (map + recency lists).  Any
// divergence in the hit/miss sequence over long random traces flags a
// bookkeeping bug in the optimised implementation.
#include <gtest/gtest.h>

#include <list>
#include <map>

#include "cachesim/cache.h"
#include "common/rng.h"

namespace grinch::cachesim {
namespace {

/// Naive set-associative cache with exact LRU or FIFO, written as
/// differently as possible from cachesim::Cache.
class ReferenceCache {
 public:
  ReferenceCache(unsigned line_bytes, unsigned sets, unsigned ways, bool lru)
      : line_bytes_(line_bytes), sets_(sets), ways_(ways), lru_(lru) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr / line_bytes_;
    const std::uint64_t set = line % sets_;
    const std::uint64_t tag = line / sets_;
    auto& order = sets_state_[set];
    for (auto it = order.begin(); it != order.end(); ++it) {
      if (*it == tag) {
        if (lru_) {  // refresh recency; FIFO leaves order untouched
          order.erase(it);
          order.push_back(tag);
        }
        return true;
      }
    }
    if (order.size() == ways_) order.pop_front();  // evict oldest
    order.push_back(tag);
    return false;
  }

  void flush_line(std::uint64_t addr) {
    const std::uint64_t line = addr / line_bytes_;
    const std::uint64_t set = line % sets_;
    const std::uint64_t tag = line / sets_;
    sets_state_[set].remove(tag);
  }

  void flush() { sets_state_.clear(); }

 private:
  unsigned line_bytes_, sets_, ways_;
  bool lru_;
  std::map<std::uint64_t, std::list<std::uint64_t>> sets_state_;
};

struct Param {
  unsigned line_bytes;
  unsigned sets;
  unsigned ways;
  Replacement policy;
  // gtest names each case by dumping this struct's bytes. Spelling out the
  // tail padding keeps it zero, so the names do not change from run to run.
  std::uint8_t padding[3] = {};
};

class CacheVsReference : public ::testing::TestWithParam<Param> {};

TEST_P(CacheVsReference, HitMissSequencesAgreeOnRandomTraces) {
  const Param p = GetParam();
  CacheConfig cfg;
  cfg.line_bytes = p.line_bytes;
  cfg.num_sets = p.sets;
  cfg.associativity = p.ways;
  cfg.replacement = p.policy;
  Cache cache{cfg};
  ReferenceCache ref{p.line_bytes, p.sets, p.ways,
                     p.policy == Replacement::kLru};

  Xoshiro256 rng{p.line_bytes * 1000003u + p.sets * 101u + p.ways};
  for (int i = 0; i < 20000; ++i) {
    const unsigned op = static_cast<unsigned>(rng.uniform(100));
    if (op < 90) {
      // Skewed address distribution: hot region + cold tail, to exercise
      // both hits and evictions.
      const std::uint64_t addr = (op < 60) ? rng.uniform(1 << 10)
                                           : rng.uniform(1 << 16);
      ASSERT_EQ(cache.access(addr).hit, ref.access(addr))
          << "op " << i << " addr " << addr;
    } else if (op < 98) {
      const std::uint64_t addr = rng.uniform(1 << 10);
      cache.flush_line(addr);
      ref.flush_line(addr);
    } else {
      cache.flush();
      ref.flush();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(Param{1, 64, 16, Replacement::kLru},   // paper default
                      Param{4, 16, 4, Replacement::kLru},
                      Param{8, 8, 2, Replacement::kLru},
                      Param{64, 64, 8, Replacement::kLru},
                      Param{1, 64, 16, Replacement::kFifo},
                      Param{4, 16, 4, Replacement::kFifo},
                      Param{16, 4, 1, Replacement::kLru},    // direct-mapped
                      Param{16, 4, 1, Replacement::kFifo},
                      Param{2, 1, 32, Replacement::kLru},    // fully assoc.
                      Param{32, 128, 2, Replacement::kFifo}));

}  // namespace
}  // namespace grinch::cachesim
