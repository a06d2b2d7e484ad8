// The channel fault vocabulary of the observation pipeline.
//
// A real probe channel is not the clean RTL-style oracle the direct-probe
// platform simulates: co-tenant traffic evicts monitored lines between
// the victim's access and the attacker's reload (false absents), hardware
// prefetchers and other processes touch monitored lines the victim never
// used (false presents), scheduler preemption makes the attacker miss an
// encryption window outright (drops) or read a window late enough that it
// reports the *previous* encryption's residue (stale), and a preemption
// that parks the attacker for several quanta corrupts a whole run of
// consecutive observations (bursts).  CACHE SNIPER (Briongos et al.)
// documents the first three on real hardware; the GRINCH paper's MPSoC
// results survive exactly this channel.
//
// FaultProfile names each failure mode with an independent rate; the
// FaultyObservationSource decorator (target/faulty_source.h) injects them
// deterministically from per-mode Xoshiro256 sub-streams, and the
// direct-probe platform's eviction-noise option (DirectProbePlatform's
// noise_accesses_per_round) is documented against the same vocabulary:
// cache-level third-party traffic is the *mechanism* whose channel-level
// *symptom* is a false-absent rate.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "cachesim/config.h"
#include "common/rng.h"

namespace grinch::target {

/// Per-observation channel fault rates.  All zero = clean channel (the
/// decorator and the engine's robustness machinery stay out of the way).
struct FaultProfile {
  /// P(a monitored line the victim touched reads as absent) — eviction
  /// noise: co-tenant traffic displaced the line before the reload.
  /// Applied per *cache line*, so indices sharing a line flip together.
  double false_absent_rate = 0.0;
  /// P(a monitored line the victim never touched reads as present) —
  /// prefetcher pull-ins and co-tenant touches of monitored lines.
  double false_present_rate = 0.0;
  /// P(the probe misses the encryption window entirely).  A dropped
  /// observation is *detectable* (the attacker knows its probe was late):
  /// it is delivered with Observation::dropped set and must be skipped.
  double dropped_rate = 0.0;
  /// P(the probe reports the previous delivered observation's line set)
  /// — a mistimed probe reading the prior window's residue.  Undetectable.
  double stale_rate = 0.0;
  /// P(a fault burst starts at this observation).  A burst models a
  /// scheduler preemption: this and the next `burst_length - 1`
  /// observations report uniformly random line occupancy.  Undetectable.
  double burst_rate = 0.0;
  /// Observations corrupted per burst.
  unsigned burst_length = 4;
  /// Master seed; each fault mode draws from its own Xoshiro256 sub-seeded
  /// via SplitMix64, so the modes' random streams are independent: tuning
  /// one rate never shifts another mode's decisions.
  std::uint64_t seed = 0xFA171;

  [[nodiscard]] constexpr bool any() const noexcept {
    return false_absent_rate > 0.0 || false_present_rate > 0.0 ||
           dropped_rate > 0.0 || stale_rate > 0.0 || burst_rate > 0.0;
  }

  /// The clean channel (all rates zero).
  [[nodiscard]] static constexpr FaultProfile clean() noexcept { return {}; }

  /// The documented moderate mixed profile (docs/ROBUSTNESS.md): every
  /// fault mode active at rates a voted engine (Config::noisy_defaults)
  /// rides out — all registered ciphers recover their full key within the
  /// default budget, with noise restarts along the way.
  [[nodiscard]] static constexpr FaultProfile moderate() noexcept {
    FaultProfile p;
    p.false_absent_rate = 0.02;
    p.false_present_rate = 0.02;
    p.dropped_rate = 0.03;
    p.stale_rate = 0.01;
    p.burst_rate = 0.005;
    p.burst_length = 3;
    return p;
  }

  /// The documented saturating profile: the channel is mostly garbage —
  /// half the encryption windows are missed outright and spurious
  /// presences pardon every candidate, so elimination starves.  Recovery
  /// within a sane budget is impossible and the engine's job is to
  /// degrade gracefully: exhaust the budget, then report the surviving
  /// candidate masks (kept wide, so they still contain the true
  /// candidates) and the residual brute-force cost.
  [[nodiscard]] static constexpr FaultProfile saturating() noexcept {
    FaultProfile p;
    p.false_absent_rate = 0.05;
    p.false_present_rate = 0.30;
    p.dropped_rate = 0.50;
    p.stale_rate = 0.10;
    p.burst_rate = 0.05;
    p.burst_length = 6;
    return p;
  }

  /// Named-profile lookup for CLI/bench front-ends and campaign specs:
  /// "clean", "moderate" or "saturating"; nullopt for any other name.
  [[nodiscard]] static constexpr std::optional<FaultProfile> named(
      std::string_view name) noexcept {
    if (name == "clean") return clean();
    if (name == "moderate") return moderate();
    if (name == "saturating") return saturating();
    return std::nullopt;
  }
};

/// The third-party (co-tenant) noise address space of simulation
/// platforms that model eviction noise at the cache level
/// (DirectProbePlatform::Config::noise_accesses_per_round).
///
/// The region is chosen so noise traffic behaves exactly like the fault
/// vocabulary's false-absent mode and nothing else:
///  * it starts above every victim table (TableLayout places the S-Box at
///    0x1000 and the PermBits table at 0x2000; both end well below kBase),
///    so a noise access can never *fake* a monitored line's presence;
///  * it spans `kWaysCovered` full set-strides of the cache, so its
///    addresses alias every cache set — including each monitored set —
///    and heavy traffic evicts monitored lines (false absents);
///  * it ends below the Prime+Probe eviction-set region (0x4000000), so
///    noise cannot masquerade as the attacker's own priming lines.
/// tests/target/direct_probe_test.cpp pins all three properties.
struct NoiseAddressSpace {
  /// First byte of the noise region.
  static constexpr std::uint64_t kBase = 0x100000;
  /// Distinct tags per set the region provides (well past any
  /// associativity in use, so uniform draws evict from every way).
  static constexpr std::uint64_t kWaysCovered = 64;

  /// Bytes covered: kWaysCovered full passes over every set.
  [[nodiscard]] static constexpr std::uint64_t span(
      const cachesim::CacheConfig& cache) noexcept {
    return static_cast<std::uint64_t>(cache.line_bytes) * cache.num_sets *
           kWaysCovered;
  }

  /// One uniformly drawn noise address for this cache geometry.
  [[nodiscard]] static std::uint64_t draw(const cachesim::CacheConfig& cache,
                                          Xoshiro256& rng) noexcept {
    return kBase + rng.uniform(span(cache));
  }
};

}  // namespace grinch::target
