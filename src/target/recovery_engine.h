// The single generic elimination-based key-recovery engine.
//
// One template replaces the per-cipher attack drivers (Grinch128Attack,
// Present80Attack) with the loop they shared: per stage, keep a candidate
// mask per segment, craft (or draw) a plaintext, observe one monitored
// encryption, and eliminate every candidate whose predicted S-Box index
// was absent from the cache; empty masks signal noise and reset.  When
// all stages resolve, a recovery-specific `finalize` assembles and
// verifies the master key (GIFT walks the key schedule backwards; PRESENT
// brute-forces the 16 bits the cache never sees).
//
// The per-stage state machine (masks, voting, stall/backoff, cursor) is
// target/stage_state.h, shared verbatim with the multi-trial wide engine
// (target/wide_engine.h); RecoveryResult lives there too.
//
// `Recovery` supplies the cipher-specific attack hooks on top of its
// platform traits (full contract in docs/TARGETS.md):
//   using Block / StageKey;
//   static constexpr kName, kSegments, kStages, kCandidatesPerSegment,
//                    kUpdateAllSegments, kDefaultSeed;
//   class Crafter {  // draws from the engine's RNG, which outlives it
//     explicit Crafter(Xoshiro256& rng);
//     Block craft(unsigned segment, const std::vector<StageKey>&, unsigned
//                 stage);
//   };
//   static std::array<unsigned, kSegments> pre_key_nibbles(
//       Block pt, const std::vector<StageKey>&, unsigned stage);
//   static unsigned candidate_index(unsigned nibble, unsigned candidate);
//   static StageKey stage_key_from(const masks array);
//   static void finalize(RecoveryResult&, ObservationSource<Block>&,
//                        Xoshiro256&, Block last_pt, std::uint64_t last_ct);
//
// Hot path (perf notes, see DESIGN.md "Performance"):
//  * Elimination is a table lookup: the observation's LineSet word
//    indexes the recovery's precomputed EliminationTable
//    (target/stage_state.h) and the keep mask folds into the
//    CandidateMask in one AND — no per-candidate branching, no heap.
//    (The voted path trades that for per-candidate counters, but only
//    when Config::vote_threshold > 1.)
//  * The first unresolved segment is tracked with a cursor + unresolved
//    count instead of rescanning all segments per encryption.
//  * Encryptions are submitted in speculative batches through
//    observe_batch (Config::max_batch; 1 = strict scalar observe() calls).
//    The engine snapshots the RNG, crafts a batch assuming the current
//    target segment stays unresolved, observes it, then REPLAYS the craft
//    sequence against the real mask state: each batch element is consumed
//    only if its replayed plaintext matches the speculative one, so the
//    consumed plaintext sequence, RNG stream, observation order and
//    encryption counts are byte-identical to the scalar loop for any
//    max_batch.  A mismatch (the target segment resolved mid-batch)
//    discards the rest of the batch and carries the already-crafted
//    plaintext into the next one.  Discarded speculative encryptions are
//    never counted, but they do run on the source: on the direct-probe
//    platform with an LRU cache and no prefetcher they cannot alter later
//    observations (every probe verdict is fully determined by the
//    accesses after that observation's own flush — the recency-stack
//    argument in target/wide_observe.h).  On FIFO, PLRU, Random and
//    prefetching caches a discarded encryption still advances cache state
//    that later verdicts read, so recover_key (target/registry.h) runs
//    those caches at max_batch = 1.  With fault injection enabled the
//    channel state IS shared across observations, so the engine rewinds
//    the fault channel to the consumed prefix after every batch
//    (FaultyObservationSource::rewind_to), restoring the same guarantee.
//  * Many independent trials at once run on the multi-trial wide engine
//    (target/wide_engine.h), which is bit-identical to this one per trial.
//
// Noise robustness (docs/ROBUSTNESS.md): the paper's MPSoC results
// survive a channel with evictions, spurious hits and missed windows.
// With Config::faults set, the engine wraps its source in a
// FaultyObservationSource and degrades gracefully:
//  * voted elimination (Config::vote_threshold, ported from
//    attack/eliminator.h): a candidate dies only after `threshold`
//    absent observations without an intervening presence, dropping the
//    wrong-elimination probability exponentially in the threshold;
//  * detectably dropped observations cost budget but never eliminate;
//  * a segment whose mask empties resets (counted per segment and in
//    RecoveryResult::noise_restarts); a segment that keeps resetting
//    backs off — speculation collapses to scalar and its effective vote
//    threshold escalates (kBackoffResets / kMaxVoteThreshold in
//    target/stage_state.h);
//  * a segment stuck without mask progress for kStallLimit updates
//    (times the threshold) resets too (false presents can wedge a
//    candidate alive);
//  * on budget exhaustion the result is *partial*, not a bare failure:
//    RecoveryResult carries the failed stage, its surviving candidate
//    masks, and the residual brute-force cost in bits.
// With all fault rates zero and the default vote_threshold, every path
// above is inert on the paper's cache and the engine is byte-identical to
// the clean-channel core.
//
// The GIFT-64 paper pipeline with its full noise machinery (cross-round
// solving, statistical elimination) remains in attack::GrinchAttack.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/key128.h"
#include "common/rng.h"
#include "finisher/tracker.h"
#include "target/fault_model.h"
#include "target/faulty_source.h"
#include "target/observation.h"
#include "target/stage_state.h"

namespace grinch::target {

template <typename Recovery>
class KeyRecoveryEngine {
 public:
  using Block = typename Recovery::Block;

  struct Config {
    std::uint64_t max_encryptions = 100000;
    std::uint64_t seed = Recovery::kDefaultSeed;
    /// Largest speculative batch submitted per observe_batch call; the
    /// engine ramps 1 -> max_batch while speculation holds and resets on
    /// a mispredict.  1 pins the engine to scalar observe() semantics,
    /// which every other value reproduces bit-identically on a source
    /// whose discarded encryptions change no later observation (see the
    /// header; recover_key pins 1 on every other cache).
    unsigned max_batch = 16;
    /// Absent observations (without an intervening presence) needed to
    /// eliminate a candidate.  1 = the paper's hard elimination, the
    /// table-lookup fast path; raise to 2-3 on noisy channels where
    /// evictions fake absences (see attack::eliminate_candidates_voted,
    /// whose semantics this ports segment-locally).
    unsigned vote_threshold = 1;
    /// Channel fault injection (target/fault_model.h).  All-zero rates =
    /// clean channel: no decorator is interposed and the engine is
    /// byte-identical to the pre-fault-layer core.
    FaultProfile faults;
    /// Residual-key finisher (src/finisher/, docs/ROBUSTNESS.md): when
    /// set, a run that would degrade to a partial escalates instead —
    /// the remaining budget splits evenly over unfinished stages, a
    /// starved stage's key is ML-assumed from all-segment presence
    /// evidence so later stages still accrue evidence, two known
    /// plaintext/ciphertext pairs are captured, and the
    /// maximum-likelihood residual search runs inline.  Off (the
    /// default) the engine is byte-identical to the pre-finisher core.
    bool finish_partials = false;
    /// Candidates the inline finisher may test (finisher::Options::
    /// max_candidates).
    std::uint64_t finish_max_candidates = std::uint64_t{1} << 17;

    /// Knobs documented for noisy channels (docs/ROBUSTNESS.md): voted
    /// elimination at threshold 2, everything else default — backoff and
    /// verify-restart escalation harden the threshold further when the
    /// channel demands it.
    [[nodiscard]] static Config noisy_defaults() {
      Config c;
      c.vote_threshold = 2;
      return c;
    }
  };

  KeyRecoveryEngine(ObservationSource<Block>& source, const Config& config)
      : source_(&source), config_(config), rng_(config.seed) {}

  [[nodiscard]] RecoveryResult<Recovery> run() {
    RecoveryResult<Recovery> result;
    // The fault channel sits between the engine and the platform only
    // when a fault rate is nonzero; a clean run drives the source
    // directly (and the decorator, if interposed, must be rewound to the
    // consumed prefix after every speculative batch — see header).
    FaultyObservationSource<Block> faulty{*source_, config_.faults};
    const bool faulted = config_.faults.any();
    ObservationSource<Block>& source =
        faulted ? static_cast<ObservationSource<Block>&>(faulty) : *source_;
    FaultyObservationSource<Block>* channel = faulted ? &faulty : nullptr;

    typename Recovery::Crafter crafter{rng_};
    std::vector<typename Recovery::StageKey> recovered;
    Block last_pt{};
    bool observed_any = false;
    const unsigned max_batch = std::max(config_.max_batch, 1u);
    const ElimParams params{config_.vote_threshold};
    // Run-level escalation: every kBackoffResets full-attack restarts
    // (wrong key failed verification) harden elimination one notch more.
    unsigned attempt_extra = 0;
    // Finish mode (Config::finish_partials): per-stage budget quotas +
    // all-segment evidence accumulation; with it off, stage_end below is
    // always max_encryptions and every finish path is inert.
    const bool finishing = config_.finish_partials;
    finisher::FinishTracker<Recovery> tracker;

    for (;;) {  // one iteration per full-attack attempt
      for (unsigned stage = 0; stage < Recovery::kStages; ++stage) {
        StageState<Recovery> st;
        if (finishing) {
          tracker.begin_stage(stage, result.total_encryptions,
                              config_.max_encryptions);
        }
        const std::uint64_t stage_end =
            finishing ? tracker.stage_end() : config_.max_encryptions;
        bool assumed = false;

        unsigned batch_size = 1;
        bool have_carry = false;
        Block carry{};
        while (st.unresolved > 0) {
          const std::uint64_t budget =
              stage_end > result.total_encryptions
                  ? stage_end - result.total_encryptions
                  : 0;
          if (budget == 0) {  // a carry implies budget >= 1
            if (finishing) {
              assumed = true;
              break;
            }
            st.fill_partial(result, stage);
            return result;
          }

          // Speculatively craft the batch as if `cursor` stays the target
          // throughout.  A carried-over plaintext was already crafted (and
          // budget-checked) against the true state, so it skips the replay.
          pts_.clear();
          unsigned pre_validated = 0;
          if (have_carry) {
            pts_.push_back(carry);
            have_carry = false;
            pre_validated = 1;
          }
          const auto want = static_cast<std::size_t>(
              std::min<std::uint64_t>(batch_size, budget));
          const Xoshiro256 rng_snapshot = rng_;
          while (pts_.size() < want) {
            pts_.push_back(crafter.craft(st.cursor, recovered, stage));
          }
          source.observe_batch(std::span<const Block>(pts_), stage, batch_);
          last_pt = pts_.back();
          observed_any = true;
          rng_ = rng_snapshot;

          // Replay-consume: re-run the scalar loop's craft sequence against
          // the live masks; element j is valid only if the replayed
          // plaintext equals the speculative one.
          st.reset_in_batch = false;
          std::size_t consumed = 0;
          bool mispredicted = false;
          for (std::size_t j = 0; j < pts_.size(); ++j) {
            if (j >= pre_validated) {
              if (result.total_encryptions >= stage_end) {
                if (finishing) {  // unreachable in practice: want <= budget
                  assumed = true;
                  break;
                }
                if (channel != nullptr) channel->rewind_to(consumed);
                st.fill_partial(result, stage);
                return result;
              }
              const Block pt = crafter.craft(st.cursor, recovered, stage);
              if (!(pt == pts_[j])) {
                // The target moved mid-batch: keep this plaintext for the
                // next submission, drop the stale speculative tail.
                carry = pt;
                have_carry = true;
                mispredicted = true;
                break;
              }
            }
            const Observation obs = batch_[j];
            ++result.total_encryptions;
            ++result.stage_encryptions[stage];
            ++consumed;
            if (obs.dropped) {
              // Detectable probe miss: budget spent, nothing learned.
              ++result.dropped_observations;
              continue;
            }
            const auto nibbles =
                Recovery::pre_key_nibbles(pts_[j], recovered, stage);
            if (finishing) tracker.note_observation(nibbles, obs.present);
            if constexpr (Recovery::kUpdateAllSegments) {
              // Joint exploitation: every segment's S-Box access shares the
              // observation, so one encryption updates all masks at once.
              for (unsigned s = 0; s < Recovery::kSegments; ++s) {
                st.update(s, obs.present, nibbles, params, attempt_extra,
                          result);
              }
            } else {
              // Crafted-plaintext mode: only the targeted segment's pre-key
              // bits are pinned, so only its mask may be updated.
              st.update(st.cursor, obs.present, nibbles, params,
                        attempt_extra, result);
            }
            if (st.unresolved == 0) break;  // stage done; drop the spare tail
          }
          // Discarded speculative elements must leave no trace in the fault
          // channel, or batched and scalar runs would diverge.
          if (channel != nullptr) channel->rewind_to(consumed);
          if (assumed) break;
          batch_size = (mispredicted || st.reset_in_batch)
                           ? 1
                           : std::min(max_batch, batch_size * 2);
        }

        recovered.push_back(assumed ? tracker.assume_stage(st, result)
                                    : Recovery::stage_key_from(st.masks));
      }

      if (finishing && tracker.any_assumed()) {
        // At least one stage ran out of quota and was ML-assumed: the
        // channel alone cannot verify this attempt; the residual search
        // does.
        finisher::finish_with_known_pairs<Recovery>(
            source, rng_, recovered, config_.finish_max_candidates, result);
        return result;
      }

      result.stages_resolved = true;
      result.stage_keys = recovered;
      const std::uint64_t last_ct =
          observed_any ? Recovery::fold_ciphertext(source.last_ciphertext())
                       : 0;
      Recovery::finalize(result, source, rng_, last_pt, last_ct);
      if (result.success || !faulted ||
          result.total_encryptions >= config_.max_encryptions) {
        return result;
      }
      // Every stage resolved, but the assembled key failed verification:
      // the channel locked a wrong candidate in.  With budget left, restart
      // the whole recovery (the fault streams keep advancing, so the next
      // attempt sees different noise) and periodically harden elimination.
      ++result.verify_restarts;
      if (result.verify_restarts % kBackoffResets == 0 &&
          params.base_threshold + attempt_extra < params.threshold_cap) {
        ++attempt_extra;
      }
      recovered.clear();
      result.stage_keys.clear();
      result.stages_resolved = false;
      result.key_verified = false;
    }  // for (;;) — next full-attack attempt
  }

 private:
  ObservationSource<Block>* source_;
  Config config_;
  Xoshiro256 rng_;
  /// Batch buffers, reused across the run (warm after one iteration).
  std::vector<Block> pts_;
  ObservationBatch batch_;
};

}  // namespace grinch::target
