#include "attack/trace_driven.h"

#include <gtest/gtest.h>

#include "attack/grinch.h"
#include "common/bits.h"
#include "common/rng.h"
#include "gift/gift64.h"
#include "target/registry.h"

namespace grinch::attack {
namespace {

TEST(TraceEliminate, MissRemovesCollidingCandidates) {
  std::array<CandidateSet, 16> masks{};
  std::array<unsigned, 16> n{};
  // Segment 0 resolved to candidate 0 with n_0 = 5 -> index 5.
  n[0] = 5;
  for (unsigned c = 1; c < 4; ++c) masks[0].remove(c);
  // Segment 1: n_1 = 4; access MISSED => index != 5 => candidate 1
  // (4^1 = 5) is impossible.
  n[1] = 4;
  target::LineSet hits(16);
  const unsigned removed = eliminate_with_trace(masks, n, hits);
  EXPECT_GE(removed, 1u);
  EXPECT_FALSE(masks[1].contains(1));
  EXPECT_TRUE(masks[1].contains(0));
}

TEST(TraceEliminate, HitPinsToEarlierIndices) {
  std::array<CandidateSet, 16> masks{};
  std::array<unsigned, 16> n{};
  // Segment 0 resolved: index 7.
  n[0] = 7;
  for (unsigned c = 1; c < 4; ++c) masks[0].remove(c);
  // Segment 1 HIT with n_1 = 4: index must be 7 => candidate 3 (4^3=7).
  n[1] = 4;
  target::LineSet hits(16);
  hits[1] = true;
  (void)eliminate_with_trace(masks, n, hits);
  ASSERT_TRUE(masks[1].resolved());
  EXPECT_EQ(masks[1].value(), 3u);
}

TEST(TraceEliminate, HitWithUnresolvedEarlierSegmentsIsConservative) {
  std::array<CandidateSet, 16> masks{};  // nothing resolved
  std::array<unsigned, 16> n{};
  target::LineSet hits(16);
  hits[5] = true;
  // No earlier segment resolved: the HIT constraint must not prune.
  EXPECT_EQ(eliminate_with_trace(masks, n, hits), 0u);
  EXPECT_EQ(masks[5].size(), 4u);
}

TEST(TraceEliminate, CascadesAcrossSegments) {
  // Resolving segment 1 via a HIT unlocks a MISS constraint on segment 2.
  std::array<CandidateSet, 16> masks{};
  std::array<unsigned, 16> n{};
  n[0] = 0xA;
  for (unsigned c = 1; c < 4; ++c) masks[0].remove(c);  // index 0xA
  n[1] = 0x9;  // HIT: index must be 0xA => candidate 3
  n[2] = 0xA;  // MISS: cannot be 0xA (from seg 0) nor seg 1's 0xA
  target::LineSet hits(16);
  hits[1] = true;
  (void)eliminate_with_trace(masks, n, hits);
  ASSERT_TRUE(masks[1].resolved());
  EXPECT_FALSE(masks[2].contains(0));  // 0xA ^ 0 = 0xA collides
}

TEST(TraceEliminate, ContradictoryTraceIsSkippedNotFatal) {
  std::array<CandidateSet, 16> masks{};
  std::array<unsigned, 16> n{};
  // Segment 0 resolved: index 3.  Segment 1 resolved-to-be 3 as well,
  // but the trace says MISS — contradiction must not empty the set.
  n[0] = 3;
  for (unsigned c = 1; c < 4; ++c) masks[0].remove(c);
  n[1] = 3;
  for (unsigned c = 1; c < 4; ++c) masks[1].remove(c);  // only candidate 0
  target::LineSet hits(16);
  (void)eliminate_with_trace(masks, n, hits);
  EXPECT_FALSE(masks[1].empty());
}

TEST(TraceDriven, PlatformEmitsConsistentHits) {
  // Ground truth: access s hits iff its index appeared earlier in the
  // monitored round.
  Xoshiro256 rng{1};
  const Key128 key = rng.key128();
  target::Gift64Platform::Config cfg;
  cfg.capture_trace = true;
  target::Gift64Platform platform{cfg, key};
  const std::uint64_t pt = rng.block64();
  const target::Observation obs = platform.observe(pt, 0);
  ASSERT_EQ(obs.sbox_hits.size(), 16u);

  const auto states = gift::Gift64::round_states(pt, key);
  std::array<bool, 16> seen{};
  for (unsigned s = 0; s < 16; ++s) {
    const unsigned idx = nibble(states[1], s);
    EXPECT_EQ(obs.sbox_hits[s], seen[idx]) << "segment " << s;
    seen[idx] = true;
  }
}

TEST(TraceDriven, NoTraceWithoutCaptureFlag) {
  Xoshiro256 rng{2};
  target::Gift64Platform platform{{}, rng.key128()};
  EXPECT_TRUE(platform.observe(rng.block64(), 0).sbox_hits.empty());
}

TEST(TraceDriven, AttackNeedsFewerEncryptions) {
  Xoshiro256 rng{3};
  const Key128 key = rng.key128();

  target::Gift64Platform::Config base;
  target::Gift64Platform p1{base, key};
  attack::GrinchConfig cfg;
  cfg.stages = 1;
  cfg.seed = 31;
  GrinchAttack a1{p1, cfg};
  const auto r1 = a1.run();

  target::Gift64Platform::Config with_trace = base;
  with_trace.capture_trace = true;
  target::Gift64Platform p2{with_trace, key};
  cfg.use_trace_hits = true;
  GrinchAttack a2{p2, cfg};
  const auto r2 = a2.run();

  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  const gift::RoundKey64 truth = gift::extract_round_key64(key);
  EXPECT_EQ(r2.round_keys[0].u, truth.u);
  EXPECT_EQ(r2.round_keys[0].v, truth.v);
  EXPECT_LT(r2.total_encryptions, r1.total_encryptions);
}

}  // namespace
}  // namespace grinch::attack
