// Residual-key finisher: maximum-likelihood search completing a partial
// recovery into a verified full key (docs/ROBUSTNESS.md "The residual
// finisher").
//
// Input: a finish-mode RecoveryResult partial — per-stage keys with the
// starved stages ML-assumed, assumed-stage presence evidence
// (finisher/evidence.h) and 1-2 exact known plaintext/ciphertext pairs.
// The finisher ranks residual key assignments by their joint
// presence-count deficit (likelihood.h), enumerates them in
// (penalty, lexicographic) order (enumerate.h), and verifies them one at
// a time against the known pairs via the cipher's reference
// implementation (Recovery::finisher_verify) until one matches.
//
// Outcome, three-way: kRecovered (rank = the winner's 0-based rank) /
// kExhaustedBudget (Options::max_candidates tested) /
// kEvidenceInconsistent (ranked space exhausted without a verified key:
// the truth fell outside the surviving masks, or the evidence — or the
// pairs — are corrupt).  candidates_tested counts the rank prefix
// through the winner, and frontier_rank, the next untested rank, equals
// it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/key128.h"
#include "finisher/enumerate.h"
#include "finisher/evidence.h"
#include "finisher/likelihood.h"
#include "target/candidate_mask.h"
#include "target/stage_state.h"

namespace grinch::finisher {

struct Options {
  /// Candidates to test before giving up with kExhaustedBudget.
  std::uint64_t max_candidates = std::uint64_t{1} << 17;
};

template <typename Recovery>
struct FinishReport {
  FinisherStats stats;
  /// Verified master key (outcome == kRecovered only).
  Key128 key{};
  /// The winning candidate's full per-stage keys (assumed stages
  /// replaced by the verified assignment).
  std::vector<typename Recovery::StageKey> stage_keys;
};

/// Runs the maximum-likelihood residual search on a finish-mode partial.
template <typename Recovery>
[[nodiscard]] FinishReport<Recovery> finish_partial(
    const target::RecoveryResult<Recovery>& partial, const Options& options) {
  const auto t0 = std::chrono::steady_clock::now();
  FinishReport<Recovery> rep;
  FinisherStats& stats = rep.stats;

  const std::vector<Slot<Recovery>> slots = build_slots(partial);
  std::vector<std::vector<std::uint32_t>> deltas;
  deltas.reserve(slots.size());
  for (const Slot<Recovery>& slot : slots) deltas.push_back(slot.deltas);
  PenaltyEnumerator enumerator{std::move(deltas)};
  stats.search_space_bits = enumerator.space_bits();

  std::vector<typename Recovery::Block> pts;
  std::vector<typename Recovery::Block> cts;
  for (const KnownPair<Recovery>& pair : partial.known_pairs) {
    pts.push_back(pair.plaintext);
    cts.push_back(pair.ciphertext);
  }
  const bool searchable = !slots.empty() && !pts.empty() &&
                          partial.stage_keys.size() == Recovery::kStages;
  stats.outcome = searchable ? FinisherOutcome::kExhaustedBudget
                             : FinisherOutcome::kEvidenceInconsistent;

  std::vector<std::uint32_t> ranks;
  while (searchable && stats.candidates_tested < options.max_candidates) {
    if (!enumerator.next(ranks)) {
      stats.outcome = FinisherOutcome::kEvidenceInconsistent;
      break;
    }
    // The partial's keys with every assumed stage rebuilt from the
    // assignment's picks; build_slots emits kSegments slots per stage.
    std::vector<typename Recovery::StageKey> keys = partial.stage_keys;
    for (std::size_t base = 0; base < slots.size();
         base += Recovery::kSegments) {
      std::array<target::CandidateMask<Recovery::kCandidatesPerSegment>,
                 Recovery::kSegments>
          picks{};
      for (unsigned s = 0; s < Recovery::kSegments; ++s) {
        const Slot<Recovery>& slot = slots[base + s];
        picks[s].set_mask(static_cast<std::uint16_t>(
            1u << slot.candidates[ranks[base + s]]));
      }
      keys[slots[base].stage] = Recovery::stage_key_from(picks);
    }
    ++stats.candidates_tested;
    if (Recovery::finisher_verify(keys, pts, cts, rep.key,
                                  stats.offline_trials)) {
      stats.outcome = FinisherOutcome::kRecovered;
      stats.rank = stats.candidates_tested - 1;
      rep.stage_keys = std::move(keys);
      break;
    }
  }

  stats.frontier_rank = stats.candidates_tested;
  stats.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  return rep;
}

}  // namespace grinch::finisher
