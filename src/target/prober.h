// Attacker-side cache probing primitives.
//
// GRINCH step 2 ("Probe the Cache") offers two classical techniques:
//
//  * Flush+Reload — flush the monitored lines, let the victim run, reload
//    each line and time it: a fast reload means the victim touched it.
//    The paper prefers it because the flush is fast, allowing an earlier,
//    cleaner probe.
//  * Prime+Probe — fill the monitored sets with attacker lines, let the
//    victim run, re-access the attacker lines: a slow re-access means the
//    victim displaced one, i.e. touched the set.  Set-granular and
//    noisier (any victim access aliasing the set triggers it).
//
// Both observe *only* access latency, exactly like the real attacks; the
// hit/miss threshold is derived from the cache's configured latencies.
// The probers are cipher-agnostic: they monitor whatever TableLayout they
// are given, so one implementation serves every registered target.
//
// Hot path: probe() runs once per monitored encryption, so the line/set
// dedup bookkeeping (which index is the first of its cache line / set,
// which attacker addresses prime a set) is computed once at construction;
// prepare()/probe() then execute a fixed access schedule with no per-call
// allocation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cachesim/cache.h"
#include "target/line_set.h"
#include "target/observation.h"
#include "target/table_layout.h"

namespace grinch::target {

/// What a probe saw: presence of each monitored S-Box row's line.
struct ProbeResult {
  /// row_present[r] == true when S-Box row r's cache line was resident.
  LineSet row_present;
  std::uint64_t cycles = 0;  ///< attacker time spent probing

  /// Number of distinct *lines* observed present (rows sharing a line
  /// count once).
  [[nodiscard]] unsigned present_rows() const noexcept {
    return row_present.count();
  }
};

/// Common interface so platforms can swap probing techniques.
class CacheProber {
 public:
  virtual ~CacheProber() = default;

  /// Prepares the cache before the victim window (flush or prime).
  /// Returns attacker cycles spent.
  virtual std::uint64_t prepare() = 0;

  /// Measures after the victim window.
  virtual ProbeResult probe() = 0;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Flush+Reload over the victim's S-Box rows.
class FlushReloadProber final : public CacheProber {
 public:
  FlushReloadProber(cachesim::Cache& cache, const TableLayout& layout);

  /// clflush of every monitored line.
  std::uint64_t prepare() override;

  /// Reload each monitored row and time it.  NOTE: reloading pollutes the
  /// cache (the real effect too); callers prepare() again before reuse.
  ProbeResult probe() override;

  [[nodiscard]] const char* name() const noexcept override {
    return "Flush+Reload";
  }

  /// Per-index reload schedule, fixed at construction.  Public so the
  /// wide observation path's presence shortcut (target/wide_observe.h)
  /// can reproduce the exact schedule without a cache.
  struct RowInfo {
    std::uint64_t addr = 0;      ///< the row's byte address
    std::uint8_t line_slot = 0;  ///< dense id of the row's cache line
    bool reload = false;  ///< first row of its line in probe order: access it
  };

  /// rows()[index] is probe()'s fixed schedule entry for S-Box index
  /// `index` (probe order is index 15 down to 0).
  [[nodiscard]] const std::array<RowInfo, LineSet::kMaxBits>& rows()
      const noexcept {
    return rows_;
  }

  /// Reload latency at or below this is classified a hit.
  [[nodiscard]] std::uint64_t threshold() const noexcept { return threshold_; }

 private:
  cachesim::Cache* cache_;
  TableLayout layout_;
  std::uint64_t threshold_;  ///< latency below => hit
  std::array<RowInfo, LineSet::kMaxBits> rows_{};
};

/// Prime+Probe over the sets the S-Box rows map to.
class PrimeProbeProber final : public CacheProber {
 public:
  /// `attacker_base` is an address region disjoint from the victim's
  /// tables, used to build eviction sets.
  PrimeProbeProber(cachesim::Cache& cache, const TableLayout& layout,
                   std::uint64_t attacker_base = 0x4000000);

  /// Primes every monitored set with `associativity` attacker lines.
  std::uint64_t prepare() override;

  /// Re-accesses the priming lines; a miss marks the set as touched.
  ProbeResult probe() override;

  [[nodiscard]] const char* name() const noexcept override {
    return "Prime+Probe";
  }

 private:
  /// Per-index probe schedule, fixed at construction.
  struct IndexInfo {
    std::uint8_t set_slot = 0;       ///< dense id of the index's cache set
    bool measure = false;  ///< first index of its set in probe order
    std::uint16_t addr_begin = 0;    ///< offset into probe_addrs_
  };

  cachesim::Cache* cache_;
  TableLayout layout_;
  std::uint64_t threshold_;
  std::array<IndexInfo, 16> index_info_{};
  /// Eviction-set addresses re-accessed by probe(), `associativity` many
  /// per measured set, in measurement order.
  std::vector<std::uint64_t> probe_addrs_;
  /// Priming access sequence of prepare(), in order.
  std::vector<std::uint64_t> prime_addrs_;
};

/// The prober `method` names, on `cache`, over `layout`'s S-Box rows.
[[nodiscard]] std::unique_ptr<CacheProber> make_prober(
    ProbeMethod method, cachesim::Cache& cache, const TableLayout& layout);

}  // namespace grinch::target
