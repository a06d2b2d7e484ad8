// Residual finisher suite (finisher/finisher.h): the maximum-likelihood
// residual search on finish-mode partials.
//
// FinisherSearch covers the outcome contract — a saturating GIFT-64
// engine partial finishes to the verified true key, four fixed-seed
// searches keep their pinned outcomes, and the evidence_inconsistent
// outcome fires exactly when the ranked space exhausts without a
// verified key (truth outside the masks, corrupted pair, or no pairs at
// all).
//
// FinisherResume pins the budget contract: a search whose budget ends
// one candidate short of the winner reports exhausted_budget with the
// frontier at the winner's rank.
#include "finisher/finisher.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gift/key_schedule.h"
#include "target/faulty_source.h"
#include "target/registry.h"

namespace grinch::finisher {
namespace {

using target::Gift64Recovery;
using target::FaultProfile;
using Recovery = Gift64Recovery;
using Engine = target::KeyRecoveryEngine<Recovery>;
using Result = target::RecoveryResult<Recovery>;

Key128 victim_key(std::uint64_t salt) {
  Xoshiro256 rng{Recovery::kDefaultSeed ^ salt};
  return Recovery::canonical_key(rng.key128());
}

std::array<unsigned, 16> truth_candidates(const Key128& key, unsigned stage) {
  gift::KeySchedule schedule{key, stage + 1};
  const gift::RoundKey64 rk = schedule.round_key64(stage);
  std::array<unsigned, 16> truth{};
  for (unsigned s = 0; s < 16; ++s) {
    truth[s] = (((rk.u >> s) & 1u) << 1) | ((rk.v >> s) & 1u);
  }
  return truth;
}

/// A real finish-mode partial: the engine under the saturating profile
/// with a zero-candidate finisher budget exports the evidence, the ML
/// stage keys and the known pairs, but tests nothing.
Result saturating_partial(std::uint64_t salt) {
  Engine::Config cfg = Engine::Config::noisy_defaults();
  cfg.vote_threshold = 16;
  cfg.max_encryptions = 4000;
  cfg.faults = FaultProfile::saturating();
  cfg.finish_partials = true;
  cfg.finish_max_candidates = 0;
  return target::recover_key<Recovery>(victim_key(salt), cfg);
}

/// A hand-built finish-mode partial for stage 1 of GIFT-64: the other
/// three stage keys are the true round keys; `open_segments` low
/// segments keep {truth, truth^1} alive while the rest are resolved to
/// the truth.  With `truth_on_top` the truth leads every slot (rank 0);
/// without it the impostor out-presences the truth by a per-segment
/// deficit of 2+s, pushing the true assignment to a known-positive rank.
Result synthetic_partial(const Key128& key, unsigned open_segments,
                         bool truth_on_top) {
  constexpr unsigned kStage = 1;
  Result partial;
  gift::KeySchedule schedule{key, Recovery::kStages};
  for (unsigned st = 0; st < Recovery::kStages; ++st) {
    partial.stage_keys.push_back(schedule.round_key64(st));
  }
  partial.failed_stage = kStage;

  const auto truth = truth_candidates(key, kStage);
  StageEvidence<Recovery> ev;
  ev.stage = kStage;
  ev.assumed = true;
  for (unsigned s = 0; s < 16; ++s) {
    const unsigned t = truth[s];
    ev.updates[s] = 100;
    if (s < open_segments) {
      const unsigned impostor = t ^ 1u;
      ev.masks[s] = static_cast<std::uint16_t>((1u << t) | (1u << impostor));
      ev.presence[s][t] = truth_on_top ? 90 : 90 - (2 + s);
      ev.presence[s][impostor] = truth_on_top ? 60 : 90;
    } else {
      ev.masks[s] = static_cast<std::uint16_t>(1u << t);
      ev.presence[s][t] = 90;
    }
  }
  partial.stage_evidence.push_back(ev);

  Xoshiro256 rng{0x5EED ^ key.lo};
  for (unsigned i = 0; i < 2; ++i) {
    const std::uint64_t pt = rng.block64();
    partial.known_pairs.push_back({pt, Recovery::reference_encrypt(pt, key)});
  }
  return partial;
}

// ------------------------------------------------------------------ //
//  FinisherSearch                                                     //
// ------------------------------------------------------------------ //

TEST(FinisherSearch, EngineExportsTheFinishContract) {
  const Result partial = saturating_partial(0x901);
  EXPECT_FALSE(partial.success);
  ASSERT_EQ(partial.stage_keys.size(), Recovery::kStages);
  ASSERT_EQ(partial.known_pairs.size(), 2u);
  unsigned assumed = 0;
  for (const auto& ev : partial.stage_evidence) assumed += ev.assumed;
  EXPECT_GT(assumed, 0u) << "the saturating profile must starve a stage";
  // The zero-budget finisher ran, tested nothing, and left rank 0 as the
  // frontier; residual_key_bits was refined to the space it would search.
  EXPECT_EQ(partial.finisher.outcome, FinisherOutcome::kExhaustedBudget);
  EXPECT_EQ(partial.finisher.candidates_tested, 0u);
  EXPECT_EQ(partial.finisher.frontier_rank, 0u);
  EXPECT_GT(partial.finisher.search_space_bits, 0.0);
  EXPECT_EQ(partial.residual_key_bits, partial.finisher.search_space_bits);
  // The pairs are exact victim encryptions (probe faults never corrupt
  // the victim's ciphertext).
  for (const auto& pair : partial.known_pairs) {
    EXPECT_EQ(Recovery::reference_encrypt(pair.plaintext, victim_key(0x901)),
              pair.ciphertext);
  }
}

TEST(FinisherSearch, RecoversTheTrueKeyFromASaturatingPartial) {
  const Key128 key = victim_key(0x901);
  const Result partial = saturating_partial(0x901);
  Options options;
  const FinishReport<Recovery> report = finish_partial(partial, options);
  ASSERT_EQ(report.stats.outcome, FinisherOutcome::kRecovered);
  EXPECT_EQ(report.key, key);
  EXPECT_EQ(report.stats.candidates_tested, report.stats.rank + 1);
  EXPECT_EQ(report.stats.frontier_rank, report.stats.rank + 1);
  // The presence evidence must place the truth close to the front of a
  // huge space — that separation is the whole point of the ML ranking.
  EXPECT_GT(report.stats.search_space_bits, 32.0);
  EXPECT_LT(report.stats.rank, 4096u);
}

TEST(FinisherSearch, PinnedSearchOutcomes) {
  // Fixed-seed outcomes of four searches.  Any change to the search
  // order, the counting or the stopping rule moves one of them.  The
  // demoted synthetic partial puts the truth last of its 2^16 ranks.
  constexpr std::uint64_t kDemotedRank = 65535;
  struct Pin {
    const char* label;
    Result partial;
    std::uint64_t max_candidates;
    FinisherOutcome outcome;
    std::uint64_t tested;
    std::uint64_t rank;
    std::uint64_t frontier;
    std::uint64_t offline;
    const char* key;
  };
  const Result demoted = synthetic_partial(victim_key(0x903), 16, false);
  const std::uint64_t budget = Options{}.max_candidates;
  const std::vector<Pin> pins = {
      {"saturating 0x901", saturating_partial(0x901), budget,
       FinisherOutcome::kRecovered, 1, 0, 1, 2,
       "c3486c87aa134b8bc7515353292aaa9b"},
      {"saturating 0x902", saturating_partial(0x902), budget,
       FinisherOutcome::kRecovered, 1, 0, 1, 2,
       "ce74afb008dea650fc59a0ec58c8a2a2"},
      {"demoted 0x903", demoted, budget, FinisherOutcome::kRecovered,
       kDemotedRank + 1, kDemotedRank, kDemotedRank + 1, kDemotedRank + 2,
       "568521196674f12148cb5025afa9977a"},
      {"demoted 0x903, budget = winner's rank", demoted, kDemotedRank,
       FinisherOutcome::kExhaustedBudget, kDemotedRank, 0, kDemotedRank,
       kDemotedRank, "00000000000000000000000000000000"},
  };
  for (const Pin& pin : pins) {
    Options options;
    options.max_candidates = pin.max_candidates;
    const FinishReport<Recovery> r = finish_partial(pin.partial, options);
    EXPECT_EQ(r.stats.outcome, pin.outcome) << pin.label;
    EXPECT_EQ(r.stats.candidates_tested, pin.tested) << pin.label;
    EXPECT_EQ(r.stats.rank, pin.rank) << pin.label;
    EXPECT_EQ(r.stats.frontier_rank, pin.frontier) << pin.label;
    EXPECT_EQ(r.stats.offline_trials, pin.offline) << pin.label;
    EXPECT_EQ(r.key.to_hex(), pin.key) << pin.label;
  }
}

TEST(FinisherSearch, InconsistentWhenTheTruthIsOutsideTheMasks) {
  const Key128 key = victim_key(0x905);
  Result partial = synthetic_partial(key, 3, true);
  // Lock segment 0 onto the impostor alone: no assignment can verify.
  auto& ev = partial.stage_evidence.front();
  const unsigned truth0 = truth_candidates(key, 1)[0];
  ev.masks[0] = static_cast<std::uint16_t>(1u << (truth0 ^ 1u));
  Options options;
  const FinishReport<Recovery> report = finish_partial(partial, options);
  EXPECT_EQ(report.stats.outcome, FinisherOutcome::kEvidenceInconsistent);
  // The whole (small) ranked space was actually tested before giving up.
  EXPECT_EQ(report.stats.candidates_tested, 4u);  // 2^2 open * 1 locked
}

TEST(FinisherSearch, InconsistentOnACorruptedPair) {
  const Key128 key = victim_key(0x906);
  Result partial = synthetic_partial(key, 2, true);
  partial.known_pairs[0].ciphertext ^= 1u;  // exact pairs are load-bearing
  Options options;
  const FinishReport<Recovery> report = finish_partial(partial, options);
  EXPECT_EQ(report.stats.outcome, FinisherOutcome::kEvidenceInconsistent);
  EXPECT_EQ(report.stats.candidates_tested, 4u);
}

TEST(FinisherSearch, InconsistentWithoutKnownPairs) {
  Result partial = synthetic_partial(victim_key(0x907), 2, true);
  partial.known_pairs.clear();
  Options options;
  const FinishReport<Recovery> report = finish_partial(partial, options);
  EXPECT_EQ(report.stats.outcome, FinisherOutcome::kEvidenceInconsistent);
  EXPECT_EQ(report.stats.candidates_tested, 0u);
}

// ------------------------------------------------------------------ //
//  FinisherResume                                                     //
// ------------------------------------------------------------------ //

TEST(FinisherResume, BudgetExhaustionLeavesAResumableFrontier) {
  const Key128 key = victim_key(0x908);
  const Result partial = synthetic_partial(key, 3, false);
  Options options;
  const FinishReport<Recovery> oneshot = finish_partial(partial, options);
  ASSERT_EQ(oneshot.stats.outcome, FinisherOutcome::kRecovered);
  EXPECT_EQ(oneshot.key, key);
  const std::uint64_t winner = oneshot.stats.rank;
  ASSERT_GE(winner, 1u) << "the impostor evidence must demote the truth";

  // A budget exactly one candidate short of the winner.
  Options short_budget = options;
  short_budget.max_candidates = winner;
  const FinishReport<Recovery> first = finish_partial(partial, short_budget);
  EXPECT_EQ(first.stats.outcome, FinisherOutcome::kExhaustedBudget);
  EXPECT_EQ(first.stats.candidates_tested, winner);
  EXPECT_EQ(first.stats.frontier_rank, winner);
}

}  // namespace
}  // namespace grinch::finisher
