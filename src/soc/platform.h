// SoC platforms the GRINCH attack runs against (experiment 3, Table II).
//
// Both produce the generic target::Observation shape; the RTL-simulation
// setting of experiments 1-2 (Fig. 3, Table I), whose probe moment is a
// parameter, is target::DirectProbePlatform (target/platform.h).
//
//  * SingleCoreSoC — experiment 3's first platform: victim and attacker
//    share one core under an RTOS quantum scheduler; the probe moment
//    *emerges* from scheduling and clock frequency.
//  * MpSoc         — experiment 3's second platform: a 3x3 mesh NoC with
//    the attacker on its own tile probing the shared cache remotely;
//    probing is limited only by NoC round-trips (~400 ns), so the probe
//    lands in round 1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cachesim/cache.h"
#include "common/key128.h"
#include "gift/table_gift.h"
#include "noc/network.h"
#include "soc/scheduler.h"
#include "soc/victim.h"
#include "target/observation.h"
#include "target/prober.h"

namespace grinch::soc {

/// Single-core SoC: victim + attacker share the core under the RTOS.
class SingleCoreSoC final
    : public target::ObservationSource<std::uint64_t> {
 public:
  struct Config {
    cachesim::CacheConfig cache = cachesim::CacheConfig::paper_default();
    gift::TableLayout layout;
    RtosConfig rtos;
    VictimCostModel cost = VictimCostModel::paper_calibrated();
    target::ProbeMethod method = target::ProbeMethod::kFlushReload;
  };

  SingleCoreSoC(const Config& config, const Key128& victim_key);

  /// 1-based cipher round in progress at the attacker's first quantum —
  /// the "attack efficiency (rounds)" number of Table II.
  [[nodiscard]] unsigned first_probe_round();

  target::Observation observe(std::uint64_t plaintext,
                              unsigned stage) override;
  [[nodiscard]] const gift::TableLayout& layout() const override {
    return config_.layout;
  }
  [[nodiscard]] std::vector<unsigned> index_line_ids() const override;
  [[nodiscard]] std::uint64_t last_ciphertext() const override;

  [[nodiscard]] double measured_cycles_per_round();

 private:
  Config config_;
  Key128 key_;
  cachesim::Cache cache_;
  gift::TableGift64 cipher_;
  VictimProcess victim_;  ///< reused across observe()/measurement calls
  RtosScheduler scheduler_;
  std::unique_ptr<target::CacheProber> prober_;
  std::vector<unsigned> line_ids_;  ///< computed once at construction
  /// Lazy full ciphertext of the last observed encryption (the victim
  /// buffer is also reused by measurement helpers, so the pair is kept
  /// here; completed functionally on first last_ciphertext() use).
  std::uint64_t last_pt_ = 0;
  mutable std::uint64_t last_ct_ = 0;
  mutable bool last_ct_valid_ = true;  ///< 0 before any observation
};

// ------------------------------------------------------------------------

/// Tile-based MPSoC: 3x3 mesh, victim / attacker / shared-cache tiles.
class MpSoc final : public target::ObservationSource<std::uint64_t> {
 public:
  struct Config {
    cachesim::CacheConfig cache = cachesim::CacheConfig::paper_default();
    gift::TableLayout layout;
    VictimCostModel cost = VictimCostModel::paper_calibrated();
    noc::LinkTiming link;
    double clock_mhz = 50.0;
    unsigned mesh_width = 3;
    unsigned mesh_height = 3;
    noc::NodeId victim_tile = 0;
    noc::NodeId attacker_tile = 2;
    noc::NodeId cache_tile = 4;  ///< centre of the 3x3 mesh
    unsigned probe_payload_bytes = 8;
  };

  MpSoc(const Config& config, const Key128& victim_key);

  /// Cycles for one attacker remote cache operation (request + response
  /// NoC traversal + cache access) — ~400 ns at 50 MHz in the paper.
  [[nodiscard]] std::uint64_t remote_access_cycles();

  /// Wall-clock nanoseconds of remote_access_cycles() at the configured
  /// clock.
  [[nodiscard]] double remote_access_ns();

  /// One full probe sequence (flush all monitored lines, reload all).
  [[nodiscard]] std::uint64_t probe_sequence_cycles();

  /// 1-based cipher round in progress when the attacker completes its
  /// first probe after encryption start — round 1 whenever the probe
  /// sequence is faster than a round (Table II's MPSoC row).
  [[nodiscard]] unsigned first_probe_round();

  target::Observation observe(std::uint64_t plaintext,
                              unsigned stage) override;
  [[nodiscard]] const gift::TableLayout& layout() const override {
    return config_.layout;
  }
  [[nodiscard]] std::vector<unsigned> index_line_ids() const override;
  [[nodiscard]] std::uint64_t last_ciphertext() const override;

  [[nodiscard]] noc::Network& network() noexcept { return network_; }

 private:
  Config config_;
  Key128 key_;
  noc::MeshTopology topology_;
  noc::Network network_;
  cachesim::Cache cache_;
  gift::TableGift64 cipher_;
  VictimProcess victim_;  ///< reused across observe()/measurement calls
  target::FlushReloadProber prober_;
  std::vector<unsigned> line_ids_;  ///< computed once at construction
  /// Lazy full ciphertext of the last observed encryption (see
  /// SingleCoreSoC; the victim buffer is shared with first_probe_round).
  std::uint64_t last_pt_ = 0;
  mutable std::uint64_t last_ct_ = 0;
  mutable bool last_ct_valid_ = true;  ///< 0 before any observation
};

}  // namespace grinch::soc
