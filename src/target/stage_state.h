// Per-stage elimination state, shared by the scalar and wide engines.
//
// KeyRecoveryEngine (target/recovery_engine.h) and the multi-trial
// WideRecoveryEngine (target/wide_engine.h) run the same per-stage state
// machine: candidate masks per segment, voted-elimination counters, the
// stall/backoff noise machinery, and the cursor/unresolved bookkeeping.
// This header holds that machine as a value type so both engines execute
// the *same code* — conformance between them then reduces to feeding the
// same observation sequence.
//
// RecoveryResult lives here too (it is the other type both engines
// produce); recovery_engine.h re-exports it by inclusion, so existing
// includes keep working.
//
// Hot path: at vote_threshold 1 (the paper's hard elimination) the keep
// mask comes from EliminationTable — a per-recovery precomputed
// (nibble, observation-byte) -> keep-mask table that collapses the
// per-candidate gather loop into two loads and an OR.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/key128.h"
#include "finisher/evidence.h"
#include "target/candidate_mask.h"
#include "target/line_set.h"

namespace grinch::target {

/// Outcome of one KeyRecoveryEngine run (or one WideRecoveryEngine trial).
template <typename Recovery>
struct RecoveryResult {
  bool success = false;
  bool key_verified = false;
  /// Every stage's candidate masks resolved via the cache channel (for
  /// PRESENT this means RK0; the low 16 bits still need the offline
  /// search, whose failure leaves success false).
  bool stages_resolved = false;
  Key128 recovered_key{};
  std::uint64_t total_encryptions = 0;
  /// Offline work (e.g. PRESENT's 2^16 exhaustive search); 0 when the
  /// recovery needs none.
  std::uint64_t offline_trials = 0;
  std::array<std::uint64_t, Recovery::kStages> stage_encryptions{};
  /// Recovered per-stage keys, one per resolved stage.
  std::vector<typename Recovery::StageKey> stage_keys;

  // --- noisy-channel accounting (all zero on a clean run) ---
  /// Times an observation emptied a segment's mask (or a segment
  /// stalled) and forced a reset, summed over segments and stages.
  std::uint64_t noise_restarts = 0;
  /// Observations the probe detectably missed (Observation::dropped);
  /// they cost budget but carry no information.
  std::uint64_t dropped_observations = 0;
  /// Per-segment reset counts, summed across stages (and attempts).
  std::array<std::uint32_t, Recovery::kSegments> segment_resets{};
  /// Full-attack restarts: every stage resolved but the assembled key
  /// failed verification (the channel lied consistently enough to lock a
  /// wrong candidate in), so the whole recovery re-ran.  Only possible
  /// on a faulty channel.
  std::uint64_t verify_restarts = 0;

  // --- partial-result contract (budget exhaustion) ---
  /// Stage in progress when the budget ran out; == Recovery::kStages
  /// when every stage resolved (then surviving_masks is meaningless).
  unsigned failed_stage = Recovery::kStages;
  /// The failed stage's surviving candidate masks, one per segment.  On
  /// a faulty channel the true candidates are *expected* (not
  /// guaranteed) to survive — voting makes wrong elimination
  /// exponentially unlikely, and resets re-open a wronged segment.
  std::array<std::uint16_t, Recovery::kSegments> surviving_masks{};
  /// log2 of the remaining cache-channel key-search space: surviving
  /// candidates of the failed stage plus the full entropy of the stages
  /// never reached.  0 when all stages resolved (offline_trials still
  /// applies separately).  A finisher run overwrites this with the joint
  /// space it actually searched (finisher.search_space_bits).
  double residual_key_bits = 0.0;

  // --- residual-key finisher (src/finisher/, Config::finish_partials) ---
  /// Per-stage presence evidence: an honest StageState snapshot for the
  /// failed stage of any partial, plus (finish mode) the accumulated
  /// all-segment evidence of every ML-assumed stage.  Empty on clean
  /// full recoveries.
  std::vector<finisher::StageEvidence<Recovery>> stage_evidence;
  /// Exact plaintext/ciphertext pairs captured for finisher candidate
  /// verification (finish mode only; probe faults never corrupt the
  /// victim's encryption, so the pairs are clean).
  std::vector<finisher::KnownPair<Recovery>> known_pairs;
  /// Residual-finisher outcome + statistics; outcome == kNotRun unless
  /// the finisher actually ran on this result.
  finisher::FinisherStats finisher;
};

/// Ceiling for a segment's effective vote threshold under backoff.
inline constexpr unsigned kMaxVoteThreshold = 6;
/// Segment resets within one stage, or full-attack verify restarts, per
/// backoff step: each step raises the effective vote threshold by one.
inline constexpr unsigned kBackoffResets = 6;
/// Updates of one unresolved segment without a mask change, times the
/// effective threshold, before the segment counts as stalled and resets.
/// On the paper's cache a clean observation of an unresolved segment
/// prunes with probability bounded well away from 0, so a clean run never
/// gets here; a next-line prefetcher can keep a wrong candidate's line
/// present, and then even a clean run resets through it.
inline constexpr unsigned kStallLimit = 512;

/// The elimination thresholds StageState needs; both engines build them
/// once per run from Config::vote_threshold.
struct ElimParams {
  explicit ElimParams(unsigned vote_threshold)
      : base_threshold(std::max(vote_threshold, 1u)),
        threshold_cap(std::max(kMaxVoteThreshold, base_threshold)) {}

  unsigned base_threshold;  ///< max(vote_threshold, 1)
  unsigned threshold_cap;   ///< max(kMaxVoteThreshold, base_threshold)
};

/// Precomputed hard-elimination table for one Recovery: for pre-key
/// nibble n, keep(word, n) is the candidate keep-mask of an observation
/// whose present LineSet word is `word` — bit c set iff index
/// Recovery::candidate_index(n, c) is present.  Replaces the
/// per-candidate bit-gather loop with two byte-indexed loads and an OR
/// (candidate indices always land in the low 16 observation bits).
template <typename Recovery>
class EliminationTable {
 public:
  [[nodiscard]] static const EliminationTable& instance() {
    static const EliminationTable table;
    return table;
  }

  [[nodiscard]] std::uint16_t keep(std::uint16_t word,
                                   unsigned nibble) const noexcept {
    const std::uint16_t* row = tab_[nibble].data();
    return static_cast<std::uint16_t>(row[word & 0xFFu] |
                                      row[256u + (word >> 8)]);
  }

 private:
  EliminationTable() {
    for (unsigned n = 0; n < 16; ++n) {
      for (unsigned c = 0; c < Recovery::kCandidatesPerSegment; ++c) {
        const unsigned index = Recovery::candidate_index(n, c);
        const unsigned half = index >> 3;          // 0: bits 0..7, 1: 8..15
        const unsigned bit = index & 7u;
        for (unsigned byte = 0; byte < 256; ++byte) {
          if ((byte >> bit) & 1u) {
            tab_[n][half * 256 + byte] |=
                static_cast<std::uint16_t>(1u << c);
          }
        }
      }
    }
  }

  /// tab_[nibble][0..255] keys on the observation's low byte,
  /// tab_[nibble][256..511] on its high byte.
  std::array<std::array<std::uint16_t, 512>, 16> tab_{};
};

/// One attack stage's live elimination state.  The methods are the exact
/// bodies KeyRecoveryEngine used to hold as lambdas; both engines drive
/// them with the same ElimParams so their consumed-observation behavior
/// is bit-identical.
template <typename Recovery>
struct StageState {
  std::array<CandidateMask<Recovery::kCandidatesPerSegment>,
             Recovery::kSegments>
      masks{};
  /// Voted elimination state: per-candidate consecutive-absent counters
  /// (all inert at vote_threshold 1 on a clean channel).
  std::array<std::array<std::uint8_t, Recovery::kCandidatesPerSegment>,
             Recovery::kSegments>
      votes{};
  /// Presence-evidence tallies for the voted path's resolution
  /// confirmation (all candidates share a segment's update count, so raw
  /// counts compare directly).
  std::array<std::array<std::uint16_t, Recovery::kCandidatesPerSegment>,
             Recovery::kSegments>
      presence{};
  std::array<std::uint32_t, Recovery::kSegments> stage_resets{};
  /// update() calls per segment this stage (survives resets) — the
  /// denominator behind the exported presence evidence.
  std::array<std::uint32_t, Recovery::kSegments> update_counts{};
  std::array<std::uint32_t, Recovery::kSegments> stagnant{};
  std::array<std::uint8_t, Recovery::kSegments> extra_threshold{};
  /// Invariant: `cursor` is the lowest unresolved segment whenever
  /// `unresolved > 0`; maintained incrementally by update().
  unsigned unresolved = Recovery::kSegments;
  unsigned cursor = 0;
  /// Set by any reset since the caller last cleared it; the engines use
  /// it to collapse speculative batching after noise.
  bool reset_in_batch = false;

  void begin_stage() { *this = StageState{}; }

  void reset_segment(unsigned s, const ElimParams& params,
                     unsigned attempt_extra,
                     RecoveryResult<Recovery>& result) {
    masks[s].reset();
    votes[s] = {};
    presence[s] = {};
    stagnant[s] = 0;
    ++result.noise_restarts;
    ++result.segment_resets[s];
    ++stage_resets[s];
    reset_in_batch = true;
    // Segment-level backoff: a segment that keeps resetting faces a
    // channel its current threshold cannot beat — escalate it.
    if (stage_resets[s] % kBackoffResets == 0 &&
        params.base_threshold + attempt_extra + extra_threshold[s] <
            params.threshold_cap) {
      ++extra_threshold[s];
    }
  }

  void update(unsigned s, const LineSet& present,
              const std::array<unsigned, Recovery::kSegments>& nibbles,
              const ElimParams& params, unsigned attempt_extra,
              RecoveryResult<Recovery>& result) {
    // keep bit c: candidate c's predicted S-Box index was present — or
    // absent fewer than `threshold` times in a row (voted mode).
    ++update_counts[s];
    std::uint16_t keep = 0;
    const std::uint64_t word = present.word();
    const unsigned threshold =
        std::min(params.threshold_cap,
                 params.base_threshold + attempt_extra + extra_threshold[s]);
    if (threshold <= 1) {
      keep = EliminationTable<Recovery>::instance().keep(
          static_cast<std::uint16_t>(word), nibbles[s]);
    } else {
      for (unsigned c = 0; c < Recovery::kCandidatesPerSegment; ++c) {
        if ((word >> Recovery::candidate_index(nibbles[s], c)) & 1u) {
          votes[s][c] = 0;  // a presence pardons the candidate
          if (presence[s][c] != 0xFFFF) ++presence[s][c];
          keep |= static_cast<std::uint16_t>(1u << c);
        } else {
          votes[s][c] = static_cast<std::uint8_t>(
              std::min<unsigned>(votes[s][c] + 1u, 255u));
          if (votes[s][c] < threshold) {
            keep |= static_cast<std::uint16_t>(1u << c);
          }
        }
      }
    }
    const bool was_resolved = masks[s].resolved();
    const std::uint16_t prev = masks[s].mask();
    const std::uint16_t next = static_cast<std::uint16_t>(prev & keep);
    if (next == 0) {
      reset_segment(s, params, attempt_extra, result);  // noisy observation
    } else {
      masks[s].set_mask(next);
      if (threshold > 1 && !was_resolved && masks[s].resolved()) {
        // Resolution confirmation: the survivor must carry at least as
        // much presence evidence as every candidate it outlived.  The
        // true candidate's line is present in (almost) every observation,
        // an impostor's only when another access covers it — so a
        // survivor out-presenced by an eliminated candidate means the
        // channel likely killed the truth, and the segment starts over
        // rather than lock the impostor in.
        const unsigned survivor = masks[s].value();
        for (unsigned c = 0; c < Recovery::kCandidatesPerSegment; ++c) {
          if (presence[s][c] > presence[s][survivor]) {
            reset_segment(s, params, attempt_extra, result);
            break;
          }
        }
      }
      if (!masks[s].resolved()) {
        if (next == prev) {
          // No progress: false presents can keep a wrong candidate alive
          // indefinitely; a reset re-rolls its vote state.  The limit
          // scales with the threshold — voted elimination legitimately
          // spaces mask changes ~threshold times further apart than hard
          // elimination does.
          if (++stagnant[s] >= kStallLimit * threshold) {
            reset_segment(s, params, attempt_extra, result);
          }
        } else {
          stagnant[s] = 0;
        }
      }
    }
    const bool now_resolved = masks[s].resolved();
    if (was_resolved == now_resolved) return;
    if (now_resolved) {
      --unresolved;
      while (cursor < Recovery::kSegments && masks[cursor].resolved()) {
        ++cursor;
      }
    } else {
      // A reset can re-open a segment already counted resolved (joint
      // mode under noise); pull the cursor back if it jumped past it.
      ++unresolved;
      cursor = std::min(cursor, s);
    }
  }

  /// Fills the partial-result fields from this stage's live masks, and
  /// exports the stage's presence evidence (an honest epoch snapshot —
  /// voted-path tallies, cleared by resets) for the residual finisher.
  void fill_partial(RecoveryResult<Recovery>& result, unsigned stage) const {
    result.failed_stage = stage;
    double bits = 0.0;
    finisher::StageEvidence<Recovery> ev;
    ev.stage = stage;
    for (unsigned s = 0; s < Recovery::kSegments; ++s) {
      result.surviving_masks[s] = masks[s].mask();
      bits += std::log2(static_cast<double>(masks[s].size()));
      ev.masks[s] = masks[s].mask();
      ev.updates[s] = update_counts[s];
      for (unsigned c = 0; c < Recovery::kCandidatesPerSegment; ++c) {
        ev.presence[s][c] = presence[s][c];
      }
    }
    result.stage_evidence.push_back(ev);
    bits += static_cast<double>(Recovery::kStages - 1 - stage) *
            Recovery::kSegments *
            std::log2(static_cast<double>(Recovery::kCandidatesPerSegment));
    result.residual_key_bits = bits;
  }
};

}  // namespace grinch::target
