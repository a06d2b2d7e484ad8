// The GRINCH attack orchestrator — the five-step methodology of Fig. 2.
//
//   Step 1  Generate plaintext + encrypt   (Gift64Recovery::Crafter)
//   Step 2  Probe the cache                (the platform's prober)
//   Step 3  Eliminate candidates           (CandidateEliminator, and
//                                           CrossRoundSolver for coarse lines)
//   Step 4  Reverse-engineer key bits      (Gift64Recovery key assembly)
//   Step 5  Update plaintext generation    (advance to the next stage with
//                                           the recovered round keys)
//
// Stage a (0..3) recovers the 32 bits of round key a by monitoring the
// S-Box accesses of cipher round a+1; four stages recover the full
// 128-bit key — "After applying the same trick four times, the entire
// 128-bit key can be retrieved."
//
// Coarse cache lines (Table I) hide the low index bits, so a stage may
// finish with *line-local* ambiguity that no observation of its own round
// can split.  Following §III-D ("the maximum number of candidates is 4
// ... the attacker can continue to the next round and assume all
// possibilities"), such a stage is marked pending and its leftover
// candidates are resolved during the next stage via cross-round
// constraints; a pending *last* stage gets a dedicated cleanup phase that
// monitors one round deeper.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "attack/eliminator.h"
#include "common/key128.h"
#include "common/rng.h"
#include "gift/key_schedule.h"
#include "target/observation.h"

namespace grinch::attack {

/// Consecutive observations without any candidate pruned before a stage
/// with only line-local ambiguity left is handed to the next stage /
/// cleanup phase.
inline constexpr unsigned kStallLimit = 48;
/// Statistical elimination (GrinchConfig::statistical_elimination)
/// resolves a segment after at least kStatMinObs sightings, once the
/// lowest absent count trails the runner-up by kStatZ * sqrt(sightings).
inline constexpr unsigned kStatMinObs = 32;
inline constexpr double kStatZ = 2.0;

struct GrinchConfig {
  /// Stages to run, 1..4 (4 = full key; 1 = Fig. 3's "break 1st GIFT
  /// round").  A precondition: GrinchAttack asserts it.
  unsigned stages = 4;
  /// Total encryption budget; exceeding it marks the attack as a
  /// drop-out — the paper's ">1M" cells.
  std::uint64_t max_encryptions = 1'000'000;
  /// Paper-faithful mode (false): each observation only updates the
  /// currently targeted segment, and segments are attacked one after the
  /// other ("this process is repeated 15 times for the other segments").
  /// true: every observation updates all 16 segments at once — an
  /// ablation showing the methodology's headroom.
  bool exploit_all_segments = false;
  /// Declares that presence does not identify the demanded entry even at
  /// full line resolution — e.g. a hardware prefetcher drags neighbour
  /// lines in with every demand miss, making some candidates structurally
  /// co-present.  Engages the cross-round/cross-stage machinery and
  /// stall-based deferral unconditionally.
  bool coarse_observations = false;
  /// Absent-vote threshold for direct elimination (see
  /// eliminate_candidates_voted).  1 = the paper's hard elimination;
  /// raise to 2-3 on noisy platforms where third-party traffic evicts
  /// monitored lines and single absences misfire.
  unsigned elimination_threshold = 1;
  /// Maximum-likelihood elimination for heavy eviction noise: instead of
  /// eliminating on absences, accumulate per-candidate absent-rate
  /// statistics and resolve a segment once the lowest-rate candidate is
  /// separated from the runner-up by a statistically significant gap
  /// (>= kStatZ * sqrt(sightings) absents) after at least kStatMinObs
  /// sightings.  Eviction noise only produces false *absents*, so the
  /// true candidate always has the lowest absent rate; hard elimination,
  /// by contrast, provably mis-converges once the false-absent rate is
  /// non-trivial (P(correct) ~ 0.4^16 at 37% FN).  Only effective at full
  /// line resolution (1 entry per line).
  bool statistical_elimination = false;
  /// Trace-driven augmentation: additionally exploit the monitored
  /// round's per-access hit/miss sequence when the platform reports one
  /// (Observation::sbox_hits).  Sound only without prefetching.
  bool use_trace_hits = false;
  /// RNG seed for plaintext crafting.
  std::uint64_t seed = 0xA77AC4;
};

/// Outcome of one attack stage (index 4 = the cleanup phase, if any).
struct StageReport {
  bool success = false;           ///< this stage's round key fully recovered
  bool deferred = false;          ///< handed line-local leftovers onward
  gift::RoundKey64 round_key{};   ///< valid once success
  std::uint64_t encryptions = 0;
  unsigned noise_restarts = 0;
  std::uint64_t attacker_cycles = 0;
};

/// Outcome of the whole attack.
struct AttackResult {
  bool success = false;       ///< all requested round keys recovered
  bool key_verified = false;  ///< full key reproduced a known ciphertext
  Key128 recovered_key{};     ///< valid when stages == 4 and success
  std::uint64_t total_encryptions = 0;
  std::vector<StageReport> stages;

  /// Recovered round keys, one per completed stage.
  std::vector<gift::RoundKey64> round_keys;
};

class GrinchAttack {
 public:
  /// Attacks a GIFT-64 victim through `source`; config.stages is in 1..4.
  GrinchAttack(target::ObservationSource<std::uint64_t>& source,
               const GrinchConfig& config);

  /// Runs the configured stages (plus cleanup when needed), assembles and
  /// verifies the master key when stages == 4.
  [[nodiscard]] AttackResult run();

 private:
  struct StageState {
    std::array<CandidateSet, 16> masks{};
    std::array<AbsentVotes, 16> votes{};
    /// Statistical mode: per-segment, per-candidate absent counts and
    /// total sightings.
    std::array<std::array<std::uint32_t, 4>, 16> absent_count{};
    std::array<std::uint32_t, 16> sightings{};
    bool resolved = false;
    gift::RoundKey64 round_key{};
  };

  /// Statistical-mode update for one segment; returns 1 when the segment
  /// just resolved.
  unsigned update_statistical(StageState& state, unsigned segment,
                              unsigned pre_key_nibble,
                              const target::LineSet& present) const;

  /// Drives observations until stage `stage`'s masks are all singletons
  /// (also finishing a pending previous stage), the budget runs out, or
  /// only line-local ambiguity remains and progress stalls.
  StageReport drive_stage(unsigned stage, bool cleanup_phase);

  /// Candidate value bits indistinguishable inside one cache line.
  [[nodiscard]] unsigned line_hidden_mask() const;
  [[nodiscard]] bool only_line_local_ambiguity(
      const std::array<CandidateSet, 16>& masks) const;

  [[nodiscard]] gift::RoundKey64 best_guess_round_key(
      const std::array<CandidateSet, 16>& masks) const;

  target::ObservationSource<std::uint64_t>* source_;
  GrinchConfig config_;
  Xoshiro256 rng_;
  std::vector<unsigned> line_ids_;

  /// masks/resolution per stage 0..4 (index 4: the round after the last
  /// attacked one, never itself resolved).
  std::array<StageState, 5> stage_state_{};
  /// Exact round keys for the resolved prefix of stages.
  std::vector<gift::RoundKey64> exact_keys_;
  std::uint64_t encryptions_used_ = 0;
};

}  // namespace grinch::attack
