#include "attack/cross_round.h"

#include <gtest/gtest.h>

#include <set>

#include "common/bits.h"
#include "common/rng.h"
#include "gift/constants.h"
#include "gift/gift64.h"
#include "gift/permutation.h"
#include "target/gift64_recovery.h"

namespace grinch::attack {
namespace {

TEST(Solver, SourcesMatchInversePermutation) {
  const CrossRoundSolver solver;
  const auto& perm = gift::gift64_permutation();
  for (unsigned t = 0; t < 16; ++t) {
    const auto& src = solver.sources(t);
    for (unsigned j = 0; j < 4; ++j) {
      const unsigned p = perm.inverse(4 * t + j);
      EXPECT_EQ(src.seg[j], p / 4);
      EXPECT_EQ(src.bit[j], p % 4);
    }
  }
}

TEST(Solver, SourceSegmentsAreDistinctPerTarget) {
  const CrossRoundSolver solver;
  for (unsigned t = 0; t < 16; ++t) {
    std::set<unsigned> segs(solver.sources(t).seg.begin(),
                            solver.sources(t).seg.end());
    EXPECT_EQ(segs.size(), 4u);
  }
}

TEST(Solver, PredictedNibbleMatchesRealCipher) {
  // With the true candidates plugged in, next_round_pre_key_nibble must
  // equal the real next-round state nibble minus its own key bits.
  Xoshiro256 rng{11};
  const CrossRoundSolver solver;
  for (int trial = 0; trial < 30; ++trial) {
    const Key128 key = rng.key128();
    const std::uint64_t pt = rng.block64();
    const gift::KeySchedule sched{key, 3};

    CrossRoundObservation obs;
    obs.pre_key_nibbles = target::Gift64Recovery::pre_key_nibbles(pt, {}, 0);
    obs.next_round_index = 1;

    const gift::RoundKey64 rk0 = sched.round_key64(0);
    const gift::RoundKey64 rk1 = sched.round_key64(1);
    const std::uint64_t state2 = gift::Gift64::encrypt_rounds(pt, key, 2);

    for (unsigned t = 0; t < 16; ++t) {
      const auto& src = solver.sources(t);
      std::array<unsigned, 4> truth{};
      for (unsigned j = 0; j < 4; ++j) {
        const unsigned s = src.seg[j];
        truth[j] = ((((rk0.u >> s) & 1u) << 1) | ((rk0.v >> s) & 1u));
      }
      const unsigned m = solver.next_round_pre_key_nibble(obs, t, truth);
      const unsigned cp = ((((rk1.u >> t) & 1u) << 1) | ((rk1.v >> t) & 1u));
      EXPECT_EQ(nibble(state2, t), m ^ cp) << "target " << t;
    }
  }
}

TEST(Solver, TruthAlwaysSurvivesCleanObservations) {
  // Soundness: propagation over real observations never prunes the true
  // candidates.
  Xoshiro256 rng{12};
  const CrossRoundSolver solver;
  const Key128 key = rng.key128();
  const gift::KeySchedule sched{key, 3};
  const gift::RoundKey64 rk0 = sched.round_key64(0);
  const gift::RoundKey64 rk1 = sched.round_key64(1);

  std::array<CandidateSet, 16> a{}, b{};
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t pt = rng.block64();
    CrossRoundObservation obs;
    obs.pre_key_nibbles = target::Gift64Recovery::pre_key_nibbles(pt, {}, 0);
    obs.next_round_index = 1;
    // Full-resolution presence of rounds 1 and 2 accesses.
    const auto states = gift::Gift64::round_states(pt, key);
    obs.present.assign(16, false);
    for (unsigned r = 1; r <= 2; ++r) {
      for (unsigned s = 0; s < 16; ++s) obs.present[nibble(states[r], s)] = true;
    }
    (void)solver.propagate_to_fixpoint(obs, a, b);

    for (unsigned s = 0; s < 16; ++s) {
      const unsigned ca = ((((rk0.u >> s) & 1u) << 1) | ((rk0.v >> s) & 1u));
      const unsigned cb = ((((rk1.u >> s) & 1u) << 1) | ((rk1.v >> s) & 1u));
      ASSERT_TRUE(a[s].contains(ca)) << "obs " << i << " seg " << s;
      ASSERT_TRUE(b[s].contains(cb)) << "obs " << i << " seg " << s;
    }
  }
}

TEST(Solver, ConvergesToTruthWithFullResolutionObservations) {
  // Completeness: direct elimination (round-1 info) plus cross-round
  // propagation (round-2 info) shrink both rounds' candidate sets to the
  // truth — the combination the orchestrator uses.
  Xoshiro256 rng{13};
  const CrossRoundSolver solver;
  const Key128 key = rng.key128();
  const gift::KeySchedule sched{key, 3};
  const gift::RoundKey64 rk0 = sched.round_key64(0);
  const gift::RoundKey64 rk1 = sched.round_key64(1);

  std::array<CandidateSet, 16> a{}, b{};
  for (int i = 0; i < 400 && !(all_resolved(a) && all_resolved(b)); ++i) {
    const std::uint64_t pt = rng.block64();
    CrossRoundObservation obs;
    obs.pre_key_nibbles = target::Gift64Recovery::pre_key_nibbles(pt, {}, 0);
    obs.next_round_index = 1;
    const auto states = gift::Gift64::round_states(pt, key);
    obs.present.assign(16, false);
    for (unsigned r = 1; r <= 2; ++r) {
      for (unsigned s = 0; s < 16; ++s) obs.present[nibble(states[r], s)] = true;
    }
    for (unsigned s = 0; s < 16; ++s) {
      (void)eliminate_candidates(a[s], obs.pre_key_nibbles[s], obs.present);
    }
    (void)solver.propagate_to_fixpoint(obs, a, b);
  }
  ASSERT_TRUE(all_resolved(a));
  const gift::RoundKey64 got = round_key_from(a);
  EXPECT_EQ(got.u, rk0.u);
  EXPECT_EQ(got.v, rk0.v);
  ASSERT_TRUE(all_resolved(b));
  const gift::RoundKey64 got1 = round_key_from(b);
  EXPECT_EQ(got1.u, rk1.u);
  EXPECT_EQ(got1.v, rk1.v);
}

TEST(Solver, AllPresentObservationPrunesNothing) {
  const CrossRoundSolver solver;
  std::array<CandidateSet, 16> a{}, b{};
  CrossRoundObservation obs;
  obs.present.assign(16, true);
  obs.next_round_index = 1;
  EXPECT_EQ(solver.propagate_to_fixpoint(obs, a, b), 0u);
}

TEST(Solver, NothingPresentIsTreatedAsNoise) {
  // No satisfying assignment at all => the constraint is skipped rather
  // than wiping the candidate sets.
  const CrossRoundSolver solver;
  std::array<CandidateSet, 16> a{}, b{};
  CrossRoundObservation obs;
  obs.present.assign(16, false);
  obs.next_round_index = 1;
  (void)solver.propagate_to_fixpoint(obs, a, b);
  for (unsigned s = 0; s < 16; ++s) {
    EXPECT_EQ(a[s].size(), 4u);
    EXPECT_EQ(b[s].size(), 4u);
  }
}

// The solver folds next-round constants in with
// constant_nibble_contribution; these pin it to GIFT-64's AddConstant.
TEST(Predictor, ConstantContributionOnlyTouchesBitThree) {
  for (unsigned round = 0; round < 28; ++round) {
    for (unsigned seg = 0; seg < 16; ++seg) {
      const unsigned c = constant_nibble_contribution(round, seg);
      EXPECT_EQ(c & 0x7, 0u) << "round " << round << " seg " << seg;
    }
  }
}

TEST(Predictor, ConstantContributionMatchesAddConstant64) {
  for (unsigned round = 0; round < 28; ++round) {
    const std::uint64_t delta =
        gift::add_constant64(0, gift::round_constant(round));
    for (unsigned seg = 0; seg < 16; ++seg) {
      EXPECT_EQ(constant_nibble_contribution(round, seg),
                nibble(delta, seg))
          << "round " << round << " seg " << seg;
    }
  }
}

}  // namespace
}  // namespace grinch::attack
