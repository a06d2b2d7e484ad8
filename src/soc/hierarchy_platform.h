// Two-level-hierarchy observation platform (the paper's §V future work:
// "further explore the effect of the memory hierarchy on the
// effectiveness of the attack").
//
// The victim's accesses run against an L1+L2 hierarchy.  Two attacker
// capabilities are modelled:
//
//  * kClflush  — an architectural flush that invalidates a line at every
//    level (x86 clflush style).  Reload latency then cleanly separates
//    "victim touched it" (L1 hit) from "untouched" (DRAM fill).
//  * kL1EvictOnly — the attacker can only displace lines from L1 (e.g.
//    eviction-based flushing on platforms without clflush).  Untouched
//    lines still answer from L2, so the timing threshold must sit
//    between the L1 and L2 latencies — a smaller margin, but the attack
//    carries over unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/hierarchy.h"
#include "common/key128.h"
#include "gift/table_gift.h"
#include "target/observation.h"

namespace grinch::soc {

enum class FlushCapability : std::uint8_t { kClflush, kL1EvictOnly };

class HierarchyPlatform final
    : public target::ObservationSource<std::uint64_t> {
 public:
  struct Config {
    cachesim::HierarchyConfig hierarchy;  ///< caller sets l1/l2/dram
    gift::TableLayout layout;
    unsigned probing_round = 1;
    FlushCapability flush = FlushCapability::kClflush;

    Config() {
      hierarchy.l1 = cachesim::CacheConfig::paper_default();
      cachesim::CacheConfig l2 = cachesim::CacheConfig::paper_default();
      l2.num_sets = 256;       // 4096-line L2
      l2.hit_latency = 10;
      l2.miss_latency = 30;
      hierarchy.l2 = l2;
      hierarchy.dram_latency = 100;
    }
  };

  HierarchyPlatform(const Config& config, const Key128& victim_key);

  target::Observation observe(std::uint64_t plaintext,
                              unsigned stage) override;
  [[nodiscard]] const gift::TableLayout& layout() const override {
    return config_.layout;
  }
  [[nodiscard]] std::vector<unsigned> index_line_ids() const override;
  [[nodiscard]] std::uint64_t last_ciphertext() const override;

  [[nodiscard]] cachesim::CacheHierarchy& hierarchy() noexcept {
    return hierarchy_;
  }

 private:
  /// Evicts the monitored lines per the configured capability.
  void flush_monitored();

  /// Reload-latency cutoff separating "victim touched it" from cold.
  [[nodiscard]] std::uint64_t reload_threshold() const noexcept;

  Config config_;
  Key128 key_;
  cachesim::CacheHierarchy hierarchy_;
  gift::TableGift64 cipher_;
  gift::TableGift64::Schedule schedule_;
  std::vector<unsigned> line_ids_;  ///< computed once at construction
  /// Reused across observe() calls; stops allocating after the first.
  gift::VectorTraceSink sink_;
  /// Lazy full ciphertext of the last observed encryption (the victim
  /// only emits the probed prefix of rounds; completed on demand).
  std::uint64_t last_pt_ = 0;
  mutable std::uint64_t last_ct_ = 0;
  mutable bool last_ct_valid_ = true;  ///< 0 before any observation
};

}  // namespace grinch::soc
