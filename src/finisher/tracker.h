// FinishTracker: the engine-side half of the residual-key finisher.
//
// Both recovery engines (target/recovery_engine.h, target/wide_engine.h)
// run finish mode (Config::finish_partials) through this one value type
// so their behavior stays bit-identical — the same discipline
// target/stage_state.h established for the elimination machine:
//
//  * Stage budget quotas: begin_stage() splits the remaining encryption
//    budget evenly across the stages not yet finished (the last stage
//    takes the remainder), so a saturating channel cannot starve later
//    stages of evidence entirely.
//  * Evidence accumulation: note_observation() tallies, for EVERY
//    segment and candidate, whether the candidate's predicted S-Box
//    index was present — over every consumed non-dropped observation of
//    the stage, across segment resets (unlike StageState::presence,
//    which is voted-path-only, cursor-local in crafted mode, and cleared
//    by resets).  The tally reuses the EliminationTable keep word, so
//    one observation costs kSegments table loads.
//  * ML assumption: when a stage's quota runs out unresolved,
//    assume_stage() exports the accumulated evidence, picks each
//    segment's maximum-likelihood candidate (mask-surviving, highest
//    presence, lowest index on ties) and returns the assumed StageKey so
//    the engine can keep going — later stages then accrue evidence
//    conditioned on the best available guess.
//
// After the stage loop both engines call finish_with_known_pairs(): it
// captures two known pairs (observed through the possibly-faulty
// channel, whose probe faults never touch the victim's encryption) and
// runs the search inline.  Quota exhaustion only ever triggers at the
// engines' budget checkpoints, where the RNG sits exactly after the
// consumed craft sequence — which is what keeps any-batch/any-width
// conformance intact in finish mode.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "finisher/evidence.h"
#include "finisher/finisher.h"
#include "target/candidate_mask.h"
#include "target/line_set.h"
#include "target/observation.h"
#include "target/stage_state.h"

namespace grinch::finisher {

template <typename Recovery>
class FinishTracker {
 public:
  using StageKey = typename Recovery::StageKey;

  /// Starts a stage's quota epoch: `used` encryptions are spent, the
  /// remaining budget splits evenly over the stages left.
  void begin_stage(unsigned stage, std::uint64_t used,
                   std::uint64_t max_encryptions) {
    stage_ = stage;
    const std::uint64_t left = Recovery::kStages - stage;
    const std::uint64_t remaining =
        max_encryptions > used ? max_encryptions - used : 0;
    stage_end_ = left <= 1 ? max_encryptions : used + remaining / left;
    presence_ = {};
    updates_ = 0;
  }

  /// The stage's encryption-count quota boundary: the engine assumes the
  /// stage once total_encryptions reaches it.
  [[nodiscard]] std::uint64_t stage_end() const noexcept { return stage_end_; }

  [[nodiscard]] bool any_assumed() const noexcept { return any_assumed_; }

  /// Folds one consumed, non-dropped observation into the all-segment
  /// presence tallies.
  void note_observation(
      const std::array<unsigned, Recovery::kSegments>& nibbles,
      const target::LineSet& present) {
    const auto& table = target::EliminationTable<Recovery>::instance();
    const std::uint16_t word = static_cast<std::uint16_t>(present.word());
    for (unsigned s = 0; s < Recovery::kSegments; ++s) {
      const std::uint16_t keep = table.keep(word, nibbles[s]);
      if constexpr (Recovery::kCandidatesPerSegment == 4) {
        // A 4-candidate keep mask has no bit above bit 3: one 4-lane add
        // of its bit row.
        const auto& bits = kKeepBits[keep];
        for (unsigned c = 0; c < 4; ++c) presence_[s][c] += bits[c];
      } else {
        for (unsigned c = 0; c < Recovery::kCandidatesPerSegment; ++c) {
          presence_[s][c] += (keep >> c) & 1u;
        }
      }
    }
    ++updates_;
  }

  /// Quota exhausted with the stage unresolved: export the evidence,
  /// record the partial contract (first assumed stage only) and return
  /// the maximum-likelihood stage key to continue with.
  [[nodiscard]] StageKey assume_stage(
      const target::StageState<Recovery>& st,
      target::RecoveryResult<Recovery>& result) {
    if (!any_assumed_) st.fill_partial(result, stage_);
    any_assumed_ = true;

    StageEvidence<Recovery> ev;
    ev.stage = stage_;
    ev.assumed = true;
    std::array<target::CandidateMask<Recovery::kCandidatesPerSegment>,
               Recovery::kSegments>
        picks{};
    for (unsigned s = 0; s < Recovery::kSegments; ++s) {
      const std::uint16_t mask = st.masks[s].mask();
      ev.masks[s] = mask;
      ev.updates[s] = static_cast<std::uint32_t>(updates_);
      ev.presence[s] = presence_[s];
      unsigned best = 0;
      std::uint32_t best_presence = 0;
      bool have = false;
      for (unsigned c = 0; c < Recovery::kCandidatesPerSegment; ++c) {
        if (((mask >> c) & 1u) == 0) continue;
        if (!have || presence_[s][c] > best_presence) {
          best = c;
          best_presence = presence_[s][c];
          have = true;
        }
      }
      // An empty mask cannot happen mid-stage (StageState resets it
      // full), but fall back to candidate 0 defensively.
      picks[s].set_mask(static_cast<std::uint16_t>(1u << best));
    }
    result.stage_evidence.push_back(ev);
    return Recovery::stage_key_from(picks);
  }

 private:
  /// kKeepBits[m] = {bit 0, bit 1, bit 2, bit 3} of keep mask m.
  static constexpr std::array<std::array<std::uint32_t, 4>, 16> kKeepBits =
      [] {
        std::array<std::array<std::uint32_t, 4>, 16> rows{};
        for (unsigned m = 0; m < 16; ++m) {
          for (unsigned c = 0; c < 4; ++c) rows[m][c] = (m >> c) & 1u;
        }
        return rows;
      }();

  unsigned stage_ = 0;
  std::uint64_t stage_end_ = 0;
  std::uint64_t updates_ = 0;
  bool any_assumed_ = false;
  std::array<std::array<std::uint32_t, Recovery::kCandidatesPerSegment>,
             Recovery::kSegments>
      presence_{};
};

/// Runs the residual search on a finish-mode partial and folds the
/// outcome back into the result (offline accounting summed, residual
/// bits refined to the searched joint space, key fields set on
/// recovery).
template <typename Recovery>
void finish_with_residual_search(target::RecoveryResult<Recovery>& result,
                                 const Options& options) {
  FinishReport<Recovery> report = finish_partial(result, options);
  result.finisher = report.stats;
  result.offline_trials += report.stats.offline_trials;
  result.residual_key_bits = report.stats.search_space_bits;
  if (report.stats.outcome == FinisherOutcome::kRecovered) {
    result.recovered_key = report.key;
    result.stage_keys = std::move(report.stage_keys);
    result.success = true;
    result.key_verified = true;
  }
}

/// The engines' finish step once a stage was ML-assumed: records the
/// stage keys, captures two exact plaintext/ciphertext pairs through the
/// (maybe faulty) source and runs the residual search.  The observations
/// themselves may be corrupted or dropped; only the lazily-completed
/// ciphertext matters.  Each pair costs one encryption and, like the
/// finalize verification observation, may exceed the elimination budget.
template <typename Recovery>
void finish_with_known_pairs(
    target::ObservationSource<typename Recovery::Block>& source,
    Xoshiro256& rng,
    const std::vector<typename Recovery::StageKey>& stage_keys,
    std::uint64_t max_candidates, target::RecoveryResult<Recovery>& result) {
  result.stage_keys = stage_keys;
  for (unsigned i = 0; i < 2; ++i) {
    const typename Recovery::Block pt = Recovery::random_block(rng);
    (void)source.observe(pt, 0);
    ++result.total_encryptions;
    result.known_pairs.push_back({pt, source.last_ciphertext()});
  }
  finish_with_residual_search(result, Options{max_candidates});
}

}  // namespace grinch::finisher
