// Cross-round constraint propagation for coarse cache lines (paper §III-D).
//
// When a cache line holds several S-Box entries, the probe hides the low
// index bits and direct elimination cannot separate all four (u,v)
// candidates — "the maximum number of candidates is 4.  As a result of
// this, the attacker can continue to the next round and assume all
// possibilities."  This solver is that continuation, made systematic:
//
// The S-Box index of segment t in the *next* round is
//
//   index_t = m_t(c_src0..c_src3) XOR c'_t
//
// where m_t depends (through SubCells/PermBits) on the candidates of
// exactly the four monitored-round segments feeding t, and c'_t is the
// next round's own (unknown) key pair.  Every probed observation that
// covers the next round therefore yields 16 constraints of arity 5 over
// the candidate sets.  Generalised arc consistency prunes every candidate
// value that participates in no satisfying assignment; iterating to a
// fixpoint across observations shrinks the sets to singletons even when
// single-round information is line-limited.
#pragma once

#include <array>
#include <cstdint>

#include "attack/eliminator.h"

namespace grinch::attack {

/// The round constant of round `round_index` in `segment`'s pre-key
/// nibble (GIFT-64 constants touch only bit 3 of segments 0..5 and 15).
[[nodiscard]] unsigned constant_nibble_contribution(unsigned round_index,
                                                    unsigned segment);

/// One probed encryption, prepared for cross-round propagation.
struct CrossRoundObservation {
  /// Pre-key nibbles of the monitored round (known to the attacker).
  std::array<unsigned, 16> pre_key_nibbles{};
  /// Per-index line presence; must cover the *next* round's accesses.
  target::LineSet present;
  /// 0-based cipher round index of the next round (for constant folding);
  /// for attack stage a this is a+1.
  unsigned next_round_index = 0;
};

class CrossRoundSolver {
 public:
  /// Sources of each next-round segment through the permutation.
  struct Sources {
    std::array<unsigned, 4> seg{};  ///< monitored-round source segment
    std::array<unsigned, 4> bit{};  ///< bit of that segment's S-Box output
  };

  CrossRoundSolver();

  [[nodiscard]] const Sources& sources(unsigned target_segment) const {
    return sources_[target_segment];
  }

  /// Computes m_t for a concrete assignment of the four source candidates.
  [[nodiscard]] unsigned next_round_pre_key_nibble(
      const CrossRoundObservation& obs, unsigned target_segment,
      const std::array<unsigned, 4>& source_candidates) const;

  /// One GAC pass over all 16 constraints of `obs`.  `a` holds the
  /// monitored round's candidate sets, `b` the next round's.  Returns the
  /// number of candidate values pruned.  A constraint that would empty a
  /// variable is skipped (treated as noise), mirroring the eliminator.
  unsigned propagate(const CrossRoundObservation& obs,
                     std::array<CandidateSet, 16>& a,
                     std::array<CandidateSet, 16>& b) const;

  /// propagate() repeated until a fixpoint. Returns total pruned.
  unsigned propagate_to_fixpoint(const CrossRoundObservation& obs,
                                 std::array<CandidateSet, 16>& a,
                                 std::array<CandidateSet, 16>& b) const;

 private:
  std::array<Sources, 16> sources_{};
};

}  // namespace grinch::attack
