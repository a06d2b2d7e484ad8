#include "soc/hierarchy_platform.h"

#include <algorithm>

namespace grinch::soc {

HierarchyPlatform::HierarchyPlatform(const Config& config,
                                     const Key128& victim_key)
    : config_(config),
      key_(victim_key),
      hierarchy_(config.hierarchy),
      cipher_(config.layout),
      schedule_(cipher_.make_schedule(victim_key)),
      line_ids_(target::compute_index_line_ids(
          config.layout, config.hierarchy.l1.line_bytes)) {}

std::vector<unsigned> HierarchyPlatform::index_line_ids() const {
  return line_ids_;
}

std::uint64_t HierarchyPlatform::last_ciphertext() const {
  if (!last_ct_valid_) {
    last_ct_ = cipher_.encrypt_with_schedule(last_pt_, schedule_,
                                             gift::Gift64::kRounds);
    last_ct_valid_ = true;
  }
  return last_ct_;
}

void HierarchyPlatform::flush_monitored() {
  for (unsigned row = 0; row < config_.layout.sbox_rows(); ++row) {
    const std::uint64_t addr =
        config_.layout.sbox_base + row * config_.layout.sbox_row_bytes;
    if (config_.flush == FlushCapability::kClflush) {
      hierarchy_.flush_line(addr);  // invalidates every level
    } else {
      hierarchy_.l1().flush_line(addr);  // L2 copies survive
    }
  }
}

std::uint64_t HierarchyPlatform::reload_threshold() const noexcept {
  // "Present" = served from L1, i.e. latency at or below the L1/L2
  // midpoint (or the flat hit/miss midpoint without an L2).
  return config_.hierarchy.l2
             ? (config_.hierarchy.l1.hit_latency +
                config_.hierarchy.l1.miss_latency +
                config_.hierarchy.l2->hit_latency) /
                   2
             : (config_.hierarchy.l1.hit_latency +
                config_.hierarchy.l1.miss_latency) /
                   2;
}

target::Observation HierarchyPlatform::observe(std::uint64_t plaintext,
                                               unsigned stage) {
  const unsigned probe_after = stage + 1 + config_.probing_round;
  // The probe consumes accesses only up to probe_after, so the victim
  // emits just that prefix of rounds (the full ciphertext completes
  // lazily in last_ciphertext()); the reused sink stops allocating after
  // the first encryption.
  sink_.clear();
  const unsigned emit_rounds = std::min(probe_after, gift::Gift64::kRounds);
  const std::uint64_t state =
      cipher_.encrypt_with_schedule(plaintext, schedule_, emit_rounds, &sink_);
  last_pt_ = plaintext;
  last_ct_valid_ = emit_rounds >= gift::Gift64::kRounds;
  if (last_ct_valid_) last_ct_ = state;

  const unsigned per_round = gift::TableGift64::accesses_per_round();
  auto replay_rounds = [&](unsigned from, unsigned to) {
    for (std::size_t i = static_cast<std::size_t>(from) * per_round;
         i < static_cast<std::size_t>(to) * per_round &&
         i < sink_.accesses().size();
         ++i) {
      (void)hierarchy_.access(sink_.accesses()[i].addr);
    }
  };

  replay_rounds(0, probe_after - config_.probing_round);
  flush_monitored();
  replay_rounds(probe_after - config_.probing_round, probe_after);

  // Reload in descending order (anti-prefetch hygiene, as in the flat
  // prober).
  const std::uint64_t threshold = reload_threshold();
  target::Observation o;
  o.present.assign(16, false);
  o.probed_after_round = probe_after;
  for (unsigned index = 16; index-- > 0;) {
    const std::uint64_t addr = config_.layout.sbox_row_addr(index);
    const auto r = hierarchy_.access(addr);
    o.attacker_cycles += r.latency;
    o.present[index] = r.latency <= threshold;
  }
  return o;
}

}  // namespace grinch::soc
