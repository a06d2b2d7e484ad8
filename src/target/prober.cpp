#include "target/prober.h"

#include <cassert>
#include <map>

namespace grinch::target {
namespace {

std::uint64_t hit_threshold(const cachesim::Cache& cache) {
  // Anything strictly faster than a miss is a hit; the midpoint keeps the
  // comparison robust if hierarchies add intermediate latencies.
  return (cache.config().hit_latency + cache.config().miss_latency) / 2;
}

}  // namespace

// ------------------------------------------------------- Flush+Reload --

FlushReloadProber::FlushReloadProber(cachesim::Cache& cache,
                                     const TableLayout& layout)
    : cache_(&cache), layout_(layout), threshold_(hit_threshold(cache)) {
  // Reloads run in DESCENDING address order — the classic counter-measure
  // against sequential prefetchers, whose forward next-line fetches would
  // otherwise make every later reload a false hit.  Only one timed reload
  // per distinct cache *line* (rows can share a line when line_bytes >
  // row_bytes; a second access to the same line would always hit and
  // corrupt the measurement); the verdict fans out to every index whose
  // row lives on that line.  The schedule is fixed by layout and line
  // size, so resolve it here once: per index, its address, a dense slot
  // for its line, and whether it is the line's first index in probe order.
  std::map<std::uint64_t, std::uint8_t> line_slots;
  for (unsigned index = 16; index-- > 0;) {
    const std::uint64_t addr = layout_.sbox_row_addr(index);
    const std::uint64_t base = cache_->line_base(addr);
    const auto [it, fresh] = line_slots.emplace(
        base, static_cast<std::uint8_t>(line_slots.size()));
    rows_[index] = RowInfo{addr, it->second, fresh};
  }
}

std::uint64_t FlushReloadProber::prepare() {
  std::uint64_t cycles = 0;
  for (unsigned row = 0; row < layout_.sbox_rows(); ++row) {
    cache_->flush_line(layout_.sbox_base + row * layout_.sbox_row_bytes);
    cycles += cache_->config().flush_latency;
  }
  return cycles;
}

ProbeResult FlushReloadProber::probe() {
  ProbeResult result;
  result.row_present.assign(16, false);
  std::uint32_t line_present = 0;  // bit = line slot, per rows_ schedule
  for (unsigned index = 16; index-- > 0;) {
    const RowInfo& row = rows_[index];
    if (row.reload) {
      const cachesim::AccessResult r = cache_->access(row.addr);
      result.cycles += r.latency;
      if (r.latency <= threshold_) line_present |= 1u << row.line_slot;
    }
    result.row_present.set(index, (line_present >> row.line_slot) & 1u);
  }
  return result;
}

// -------------------------------------------------------- Prime+Probe --

PrimeProbeProber::PrimeProbeProber(cachesim::Cache& cache,
                                   const TableLayout& layout,
                                   std::uint64_t attacker_base)
    : cache_(&cache), layout_(layout), threshold_(hit_threshold(cache)) {
  // An eviction address maps to the same set as the monitored row but with
  // a distinct tag per way: offset by whole cache strides.
  const std::uint64_t stride = static_cast<std::uint64_t>(
      cache_->config().line_bytes) * cache_->config().num_sets;
  const unsigned ways = cache_->config().associativity;
  auto eviction_addr = [&](unsigned row, unsigned way) {
    const std::uint64_t row_addr =
        layout_.sbox_base + row * layout_.sbox_row_bytes;
    return attacker_base + (row_addr % stride) + way * stride;
  };

  // prepare() primes each distinct set once, walking rows in ascending
  // order; resolve that dedup here into a flat access sequence.
  std::map<std::uint64_t, std::uint8_t> prime_slots;
  for (unsigned row = 0; row < layout_.sbox_rows(); ++row) {
    const std::uint64_t set = cache_->set_index(
        layout_.sbox_base + row * layout_.sbox_row_bytes);
    if (!prime_slots.emplace(set, 0).second) continue;  // set already primed
    for (unsigned way = 0; way < ways; ++way) {
      prime_addrs_.push_back(eviction_addr(row, way));
    }
  }

  // probe() measures each distinct set once, walking indices in ascending
  // order (Prime+Probe resolves sets, not tags), and fans the verdict out
  // to every index whose row maps to that set.
  std::map<std::uint64_t, std::uint8_t> set_slots;
  for (unsigned index = 0; index < 16; ++index) {
    const unsigned row = index / layout_.sbox_entries_per_row;
    const std::uint64_t set = cache_->set_index(
        layout_.sbox_base + row * layout_.sbox_row_bytes);
    const auto [it, fresh] =
        set_slots.emplace(set, static_cast<std::uint8_t>(set_slots.size()));
    index_info_[index] = IndexInfo{
        it->second, fresh, static_cast<std::uint16_t>(probe_addrs_.size())};
    if (fresh) {
      for (unsigned way = 0; way < ways; ++way) {
        probe_addrs_.push_back(eviction_addr(row, way));
      }
    }
  }
}

std::uint64_t PrimeProbeProber::prepare() {
  std::uint64_t cycles = 0;
  for (const std::uint64_t addr : prime_addrs_) {
    cycles += cache_->access(addr).latency;
  }
  return cycles;
}

ProbeResult PrimeProbeProber::probe() {
  ProbeResult result;
  result.row_present.assign(16, false);
  const unsigned ways = cache_->config().associativity;
  std::uint32_t set_touched = 0;  // bit = set slot, per index_info_ schedule
  for (unsigned index = 0; index < 16; ++index) {
    const IndexInfo& info = index_info_[index];
    if (info.measure) {
      bool touched = false;
      for (unsigned way = 0; way < ways; ++way) {
        const cachesim::AccessResult r =
            cache_->access(probe_addrs_[info.addr_begin + way]);
        result.cycles += r.latency;
        if (r.latency > threshold_) touched = true;
      }
      if (touched) set_touched |= 1u << info.set_slot;
    }
    result.row_present.set(index, (set_touched >> info.set_slot) & 1u);
  }
  return result;
}

std::unique_ptr<CacheProber> make_prober(ProbeMethod method,
                                         cachesim::Cache& cache,
                                         const TableLayout& layout) {
  if (method == ProbeMethod::kPrimeProbe) {
    return std::make_unique<PrimeProbeProber>(cache, layout);
  }
  return std::make_unique<FlushReloadProber>(cache, layout);
}

}  // namespace grinch::target
