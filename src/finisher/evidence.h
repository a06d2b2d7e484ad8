// Evidence types shared by the recovery engines and the residual-key
// finisher (src/finisher/finisher.h, docs/ROBUSTNESS.md "Residual-key
// finisher").
//
// A saturating fault channel starves elimination: the budget runs out
// with candidate masks still (nearly) full, so surviving_masks alone
// carries almost no information.  What the channel *does* leave behind
// is presence evidence — the true candidate's S-Box line is present in
// (almost) every non-dropped observation, an impostor's only when
// another access happens to cover it.  The engines therefore export,
// per stage, the per-candidate presence counts accumulated over every
// consumed observation (StageEvidence); the finisher ranks residual
// keys by how well they explain those counts and verifies the ranked
// stream against known plaintext/ciphertext pairs (KnownPair) captured
// through the same channel (probe faults never touch the victim's
// encryption, so the pairs are exact).
#pragma once

#include <array>
#include <cstdint>

namespace grinch::finisher {

/// Per-stage presence evidence exported into RecoveryResult.
///
/// Two kinds of entries share the vector:
///  * `assumed == false`: an honest snapshot of the failed stage's
///    StageState at budget exhaustion (voted-path tallies; cursor-local
///    in crafted mode, cleared by segment resets — an *epoch*, not the
///    whole stage).
///  * `assumed == true`: finish-mode evidence accumulated by
///    FinishTracker over every consumed non-dropped observation of the
///    stage, across resets and for all segments — the counts the
///    finisher's likelihood model consumes.
template <typename Recovery>
struct StageEvidence {
  unsigned stage = 0;
  /// True when the engine ML-assumed this stage's key to keep going
  /// (Config::finish_partials); the finisher searches exactly the
  /// assumed stages.
  bool assumed = false;
  /// Candidate masks surviving at the end of the stage (full masks when
  /// elimination starved).
  std::array<std::uint16_t, Recovery::kSegments> masks{};
  /// Per-segment count of informative (non-dropped) observations folded
  /// into `presence` — the denominator of the presence frequency.
  std::array<std::uint32_t, Recovery::kSegments> updates{};
  /// presence[s][c]: observations whose present-line word contained
  /// candidate c's predicted S-Box index for segment s.
  std::array<std::array<std::uint32_t, Recovery::kCandidatesPerSegment>,
             Recovery::kSegments>
      presence{};
};

/// One exact plaintext/ciphertext pair for candidate verification.
template <typename Recovery>
struct KnownPair {
  typename Recovery::Block plaintext{};
  typename Recovery::Block ciphertext{};

  friend bool operator==(const KnownPair&, const KnownPair&) = default;
};

/// Three-way finisher outcome (plus "never ran").
enum class FinisherOutcome : std::uint8_t {
  kNotRun = 0,
  /// A candidate verified against every known pair; the full key is in
  /// RecoveryResult::recovered_key.
  kRecovered = 1,
  /// The candidate budget ran out with candidates left.
  kExhaustedBudget = 2,
  /// The ranked space was exhausted without a verified key: the true key
  /// falls outside the surviving masks (or the evidence itself is
  /// corrupt).
  kEvidenceInconsistent = 3,
};

[[nodiscard]] constexpr const char* finisher_outcome_name(
    FinisherOutcome outcome) noexcept {
  switch (outcome) {
    case FinisherOutcome::kRecovered:
      return "recovered";
    case FinisherOutcome::kExhaustedBudget:
      return "exhausted_budget";
    case FinisherOutcome::kEvidenceInconsistent:
      return "evidence_inconsistent";
    case FinisherOutcome::kNotRun:
      break;
  }
  return "not_run";
}

/// Finisher statistics carried in RecoveryResult and serialized into
/// campaign JSONL / `grinch --json` reports.
///
/// Every field except `wall_seconds` is deterministic.  Wall time never
/// enters campaign records or conformance comparisons.
struct FinisherStats {
  FinisherOutcome outcome = FinisherOutcome::kNotRun;
  /// Candidates tested, in rank order up to and including the winner.
  std::uint64_t candidates_tested = 0;
  /// Rank (0-based, maximum-likelihood order) of the verified candidate;
  /// meaningful only when outcome == kRecovered.
  std::uint64_t rank = 0;
  /// Next untested rank; the search starts at rank 0, so this equals
  /// candidates_tested.
  std::uint64_t frontier_rank = 0;
  /// Reference-cipher trials spent verifying candidates (PRESENT's
  /// 2^16 low-bit loop dominates); summed into
  /// RecoveryResult::offline_trials.
  std::uint64_t offline_trials = 0;
  /// log2 of the joint residual space the finisher actually searches
  /// (product of per-slot surviving-candidate counts over assumed
  /// stages).
  double search_space_bits = 0.0;
  /// Wall-clock spent in this finisher invocation.  NOT deterministic;
  /// reported in `grinch --json` and bench `*_seconds` metrics only.
  double wall_seconds = 0.0;
};

}  // namespace grinch::finisher
