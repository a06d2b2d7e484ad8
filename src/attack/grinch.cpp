#include "attack/grinch.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "attack/cross_round.h"
#include "attack/trace_driven.h"
#include "common/bits.h"
#include "gift/gift64.h"
#include "target/gift64_recovery.h"

namespace grinch::attack {

GrinchAttack::GrinchAttack(target::ObservationSource<std::uint64_t>& source,
                           const GrinchConfig& config)
    : source_(&source),
      config_(config),
      rng_(config.seed),
      line_ids_(source.index_line_ids()) {
  // stage_state_ holds one entry per stage plus the round after the last
  // one, which a four-stage attack's cross-round solver constrains.
  assert(config.stages >= 1 && config.stages <= 4);
}

unsigned GrinchAttack::line_hidden_mask() const {
  // Lines hold 16 / distinct-line-count consecutive indices; the low
  // log2(entries-per-line) index bits are invisible to the prober.  Only
  // the two key-facing bits matter for candidates.
  unsigned distinct = 0;
  for (unsigned id : line_ids_) distinct = std::max(distinct, id + 1);
  const unsigned entries_per_line = distinct ? 16 / distinct : 16;
  return (entries_per_line - 1) & 0x3;
}

bool GrinchAttack::only_line_local_ambiguity(
    const std::array<CandidateSet, 16>& masks) const {
  const unsigned hidden = line_hidden_mask();
  for (const auto& set : masks) {
    if (set.resolved()) continue;
    // All surviving pairs must differ only in hidden bits.
    unsigned reference = 4;  // sentinel
    for (unsigned c = 0; c < 4; ++c) {
      if (!set.contains(c)) continue;
      if (reference == 4) {
        reference = c;
      } else if ((c ^ reference) & ~hidden) {
        return false;  // distinguishable in principle
      }
    }
  }
  return true;
}

gift::RoundKey64 GrinchAttack::best_guess_round_key(
    const std::array<CandidateSet, 16>& masks) const {
  gift::RoundKey64 rk;
  for (unsigned s = 0; s < 16; ++s) {
    unsigned c = 0;
    for (unsigned v = 0; v < 4; ++v) {
      if (masks[s].contains(v)) {
        c = v;
        break;
      }
    }
    rk.u |= static_cast<std::uint16_t>(((c >> 1) & 1u) << s);
    rk.v |= static_cast<std::uint16_t>((c & 1u) << s);
  }
  return rk;
}

unsigned GrinchAttack::update_statistical(StageState& state, unsigned segment,
                                          unsigned pre_key_nibble,
                                          const target::LineSet& present)
    const {
  if (state.masks[segment].resolved()) return 0;
  auto& absents = state.absent_count[segment];
  for (unsigned c = 0; c < 4; ++c) {
    const unsigned index = (pre_key_nibble ^ c) & 0xF;
    absents[c] += !present[index];
  }
  const std::uint32_t n = ++state.sightings[segment];
  if (n < kStatMinObs) return 0;

  // Resolve once the lowest absent count separates from the runner-up by
  // the kStatZ margin (in sightings).
  unsigned best = 0, runner = 1;
  if (absents[runner] < absents[best]) std::swap(best, runner);
  for (unsigned c = 2; c < 4; ++c) {
    if (absents[c] < absents[best]) {
      runner = best;
      best = c;
    } else if (absents[c] < absents[runner]) {
      runner = c;
    }
  }
  // Binomial difference significance: var(absent_i - absent_j) <= n/2,
  // so a gap of kStatZ * sqrt(n) is ~(kStatZ * 1.4)-sigma evidence.
  const double margin = kStatZ * std::sqrt(static_cast<double>(n));
  if (static_cast<double>(absents[runner]) -
          static_cast<double>(absents[best]) <
      margin) {
    return 0;
  }
  for (unsigned c = 0; c < 4; ++c) {
    if (c != best) state.masks[segment].remove(c);
  }
  return 1;
}

StageReport GrinchAttack::drive_stage(unsigned stage, bool cleanup_phase) {
  StageReport report;
  CrossRoundSolver solver;
  target::Gift64Recovery::Crafter crafter{rng_};

  unsigned stall = 0;
  unsigned craft_rotation = 0;

  auto& current = stage_state_[stage];

  for (;;) {
    const bool pending_prev = stage > 0 && !stage_state_[stage - 1].resolved;
    const bool current_done = cleanup_phase || all_resolved(current.masks);

    if (!pending_prev && current_done) {
      if (!cleanup_phase && !current.resolved) {
        current.resolved = true;
        current.round_key = round_key_from(current.masks);
        exact_keys_.push_back(current.round_key);
      }
      report.success = true;
      report.round_key = cleanup_phase ? gift::RoundKey64{} : current.round_key;
      return report;
    }

    if (encryptions_used_ >= config_.max_encryptions) return report;  // drop-out

    // Step 1 — craft a plaintext.  Target the first unresolved segment of
    // this stage (paper: segments attacked sequentially); in the cleanup
    // phase rotate targets for observation diversity.
    unsigned target_segment = craft_rotation++ % 16;
    if (!cleanup_phase) {
      const unsigned hidden = line_hidden_mask();
      // Prefer a segment whose ambiguity direct elimination can still
      // reduce (candidates differing in line-visible bits); a segment
      // stuck at line-local ambiguity yields nothing more in-stage and
      // must not monopolise the plaintext budget.
      bool found = false;
      for (unsigned s = 0; s < 16 && !found; ++s) {
        const CandidateSet& set = current.masks[s];
        if (set.resolved()) continue;
        for (unsigned c = 0; c < 4 && !found; ++c) {
          if (!set.contains(c)) continue;
          for (unsigned d = c + 1; d < 4; ++d) {
            if (set.contains(d) && ((c ^ d) & ~hidden)) {
              target_segment = s;
              found = true;
              break;
            }
          }
        }
      }
      if (!found) {
        for (unsigned s = 0; s < 16; ++s) {
          if (!current.masks[s].resolved()) {
            target_segment = s;
            break;
          }
        }
      }
    }
    std::vector<gift::RoundKey64> guess_keys = exact_keys_;
    if (pending_prev) {
      guess_keys.push_back(best_guess_round_key(stage_state_[stage - 1].masks));
    }
    // guess_keys now covers rounds 0..stage-1 (exact prefix + one guess).
    assert(guess_keys.size() >= stage);
    const std::uint64_t plaintext =
        crafter.craft(target_segment, guess_keys, stage);

    // Step 2 — one monitored encryption + probe (precision-probing
    // platforms time their probe to the focused segment's access).
    source_->focus_segment(target_segment);
    const target::Observation obs = source_->observe(plaintext, stage);
    ++encryptions_used_;
    ++report.encryptions;
    report.attacker_cycles += obs.attacker_cycles;

    unsigned progress = 0;
    bool constraint_window = false;

    // Step 3a — finish the previous stage first: the accesses of this
    // stage's monitored round (stage+1) constrain the previous round's
    // leftover candidates jointly with this round's own key bits.
    if (pending_prev) {
      CrossRoundObservation cro;
      cro.pre_key_nibbles = target::Gift64Recovery::pre_key_nibbles(
          plaintext, exact_keys_, stage - 1);
      cro.present = obs.present;
      cro.next_round_index = stage;
      progress += solver.propagate_to_fixpoint(
          cro, stage_state_[stage - 1].masks, current.masks);
      constraint_window = true;
      if (all_resolved(stage_state_[stage - 1].masks)) {
        auto& prev = stage_state_[stage - 1];
        prev.resolved = true;
        prev.round_key = round_key_from(prev.masks);
        exact_keys_.push_back(prev.round_key);
      }
    } else if (!cleanup_phase) {
      // Step 3b — direct elimination on this stage's monitored round.
      const auto nibbles = target::Gift64Recovery::pre_key_nibbles(
          plaintext, exact_keys_, stage);
      const bool statistical =
          config_.statistical_elimination && line_hidden_mask() == 0;
      if (config_.exploit_all_segments) {
        for (unsigned s = 0; s < 16; ++s) {
          progress += statistical
                          ? update_statistical(current, s, nibbles[s],
                                               obs.present)
                          : eliminate_candidates_voted(
                                current.masks[s], current.votes[s],
                                nibbles[s], obs.present,
                                config_.elimination_threshold,
                                &report.noise_restarts);
        }
      } else {
        progress += statistical
                        ? update_statistical(current, target_segment,
                                             nibbles[target_segment],
                                             obs.present)
                        : eliminate_candidates_voted(
                              current.masks[target_segment],
                              current.votes[target_segment],
                              nibbles[target_segment], obs.present,
                              config_.elimination_threshold,
                              &report.noise_restarts);
      }

      // Step 3b' — trace-driven augmentation: the per-access hit/miss
      // sequence (when the platform captured one) orders the presence
      // information and eliminates across segments.
      if (config_.use_trace_hits && obs.sbox_hits.size() == 16) {
        progress += eliminate_with_trace(current.masks, nibbles,
                                         obs.sbox_hits);
      }

      // Step 3c — §III-D: coarse lines (or prefetch-style co-presence)
      // leave ambiguity direct elimination cannot split; use next-round
      // accesses (when the probe window covered them) to constrain this
      // round's and the next round's candidates jointly.
      if ((line_hidden_mask() != 0 || config_.coarse_observations) &&
          obs.probed_after_round >= stage + 3) {
        CrossRoundObservation cro;
        cro.pre_key_nibbles = nibbles;
        cro.present = obs.present;
        cro.next_round_index = stage + 1;
        progress += solver.propagate_to_fixpoint(cro, current.masks,
                                                 stage_state_[stage + 1].masks);
        constraint_window = true;
      }
    }

    stall = progress ? 0 : stall + 1;

    // Defer unresolvable leftovers to the next stage ("assume all
    // possibilities and continue"): line-local ambiguity defers
    // immediately when no in-stage constraint source exists (or after a
    // stall when one does); coarse-observation ambiguity (prefetchers)
    // defers on stall, since which candidates are co-present is
    // data-dependent.
    if (!cleanup_phase && !pending_prev && !all_resolved(current.masks)) {
      const bool line_local = line_hidden_mask() != 0 &&
                              only_line_local_ambiguity(current.masks);
      const bool coarse_stuck =
          config_.coarse_observations && stall >= kStallLimit;
      if ((line_local && (!constraint_window || stall >= kStallLimit)) ||
          coarse_stuck) {
        report.deferred = true;
        return report;
      }
    }
  }
}

AttackResult GrinchAttack::run() {
  AttackResult result;
  stage_state_ = {};
  exact_keys_.clear();
  encryptions_used_ = 0;

  for (unsigned stage = 0; stage < config_.stages; ++stage) {
    StageReport report = drive_stage(stage, /*cleanup_phase=*/false);
    result.stages.push_back(report);
    if (!report.success && !report.deferred) {
      // Budget exhausted mid-stage.
      result.total_encryptions = encryptions_used_;
      return result;
    }
  }

  // Resolve leftovers of the last stage (and transitively any pending
  // chain) by monitoring one round deeper.
  if (!stage_state_[config_.stages - 1].resolved) {
    StageReport cleanup = drive_stage(config_.stages, /*cleanup_phase=*/true);
    result.stages.push_back(cleanup);
  }

  result.total_encryptions = encryptions_used_;
  for (unsigned stage = 0; stage < config_.stages; ++stage) {
    if (!stage_state_[stage].resolved) return result;  // failed
    // Retro-fit per-stage reports with the final resolution state.
    result.stages[stage].success = true;
    result.stages[stage].round_key = stage_state_[stage].round_key;
    result.round_keys.push_back(stage_state_[stage].round_key);
  }
  result.success = true;

  if (config_.stages == 4) {
    result.recovered_key =
        target::Gift64Recovery::assemble_master_key(result.round_keys);
    // Self-verify against one extra encryption's ciphertext.
    const std::uint64_t check_pt = rng_.block64();
    (void)source_->observe(check_pt, 0);
    ++result.total_encryptions;
    result.key_verified =
        gift::Gift64::encrypt(check_pt, result.recovered_key) ==
        source_->last_ciphertext();
    result.success = result.key_verified;
  }
  return result;
}

}  // namespace grinch::attack
