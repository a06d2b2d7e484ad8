// Registry-wide batched-observation conformance suite.
//
// The observe_batch contract (target/observation.h) promises that a batch
// is bit-identical to the equivalent sequence of scalar observe() calls:
// same Observation fields element by element, and last_ciphertext()
// referring to the final element afterwards.  DirectProbePlatform
// overrides the default loop to hoist per-encryption bookkeeping, so this
// suite drives every registered target both ways and compares.  It also
// pins the engine-level guarantee: KeyRecoveryEngine's speculative
// batching (Config::max_batch > 1) must reproduce the scalar run exactly —
// same recovered key, same total and per-stage encryption counts.
//
// The guarantee extends through channel fault injection: a
// FaultyObservationSource advances per-mode random streams per *delivered*
// observation, so batch delivery must corrupt identically to scalar
// delivery, and the engine must rewind the channel past discarded
// speculative tails (FaultyObservationSource::rewind_to) so every noise
// counter matches the scalar run too.
#include "target/registry.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "target/faulty_source.h"

namespace grinch::target {
namespace {

template <typename Tuple>
struct AsTestTypes;
template <typename... Ts>
struct AsTestTypes<std::tuple<Ts...>> {
  using type = ::testing::Types<Ts...>;
};

using AllTargets = AsTestTypes<RegisteredRecoveries>::type;

template <typename Recovery>
class BatchConformance : public ::testing::Test {
 protected:
  static Key128 victim_key(std::uint64_t salt) {
    Xoshiro256 rng{Recovery::kDefaultSeed ^ salt};
    return Recovery::canonical_key(rng.key128());
  }
};
TYPED_TEST_SUITE(BatchConformance, AllTargets);

TYPED_TEST(BatchConformance, ObserveBatchBitIdenticalToScalar) {
  using Recovery = TypeParam;
  using Block = typename Recovery::Block;
  const Key128 key = this->victim_key(0xB0);
  DirectProbePlatform<Recovery> scalar{{}, key};
  DirectProbePlatform<Recovery> batched{{}, key};
  Xoshiro256 rng{0xBA7C4};
  ObservationBatch batch;
  for (unsigned stage = 0; stage < 3 && stage < Recovery::kStages; ++stage) {
    std::vector<Block> pts;
    for (unsigned i = 0; i < 8; ++i) pts.push_back(Recovery::random_block(rng));
    batched.observe_batch(pts, stage, batch);
    ASSERT_EQ(batch.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const Observation o = scalar.observe(pts[i], stage);
      EXPECT_EQ(batch[i].present, o.present)
          << "stage " << stage << " element " << i;
      EXPECT_EQ(batch[i].probed_after_round, o.probed_after_round);
      EXPECT_EQ(batch[i].attacker_cycles, o.attacker_cycles);
      EXPECT_EQ(batch[i].sbox_hits, o.sbox_hits);
    }
    EXPECT_EQ(batched.last_ciphertext(), scalar.last_ciphertext())
        << "stage " << stage;
  }
}

TYPED_TEST(BatchConformance, DefaultLoopAndOverrideAgree) {
  // The base-class default (scalar loop) and the platform override must be
  // interchangeable: drive the override through the interface and compare
  // against the default implementation on an identical twin.
  using Recovery = TypeParam;
  using Block = typename Recovery::Block;
  const Key128 key = this->victim_key(0xB1);
  DirectProbePlatform<Recovery> a{{}, key};
  DirectProbePlatform<Recovery> b{{}, key};
  ObservationSource<Block>& via_override = a;
  Xoshiro256 rng{0xD0D0};
  std::vector<Block> pts;
  for (unsigned i = 0; i < 6; ++i) pts.push_back(Recovery::random_block(rng));
  ObservationBatch out_override;
  via_override.observe_batch(pts, 0, out_override);
  ObservationBatch out_default;
  b.ObservationSource<Block>::observe_batch(pts, 0, out_default);
  ASSERT_EQ(out_override.size(), out_default.size());
  for (std::size_t i = 0; i < out_override.size(); ++i) {
    EXPECT_EQ(out_override[i].present, out_default[i].present) << i;
    EXPECT_EQ(out_override[i].probed_after_round,
              out_default[i].probed_after_round);
    EXPECT_EQ(out_override[i].attacker_cycles, out_default[i].attacker_cycles);
    EXPECT_EQ(out_override[i].sbox_hits, out_default[i].sbox_hits);
  }
  EXPECT_EQ(a.last_ciphertext(), b.last_ciphertext());
}

TYPED_TEST(BatchConformance, EmptyBatchIsANoOp) {
  using Recovery = TypeParam;
  using Block = typename Recovery::Block;
  const Key128 key = this->victim_key(0xB2);
  DirectProbePlatform<Recovery> platform{{}, key};
  Xoshiro256 rng{0xE0};
  const Block pt = Recovery::random_block(rng);
  (void)platform.observe(pt, 0);
  const Block before = platform.last_ciphertext();
  ObservationBatch out;
  out.resize(5);  // stale contents must be cleared
  platform.observe_batch(std::span<const Block>{}, 0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(platform.last_ciphertext(), before);
}

TYPED_TEST(BatchConformance, BatchedEngineMatchesScalarEngine) {
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0xB3);
  typename KeyRecoveryEngine<Recovery>::Config scalar_cfg;
  scalar_cfg.max_batch = 1;
  typename KeyRecoveryEngine<Recovery>::Config batched_cfg;
  batched_cfg.max_batch = 16;
  const RecoveryResult<Recovery> s = recover_key<Recovery>(key, scalar_cfg);
  const RecoveryResult<Recovery> b = recover_key<Recovery>(key, batched_cfg);
  ASSERT_TRUE(s.success);
  ASSERT_TRUE(b.success);
  EXPECT_EQ(b.recovered_key, s.recovered_key);
  EXPECT_EQ(b.key_verified, s.key_verified);
  EXPECT_EQ(b.stages_resolved, s.stages_resolved);
  EXPECT_EQ(b.total_encryptions, s.total_encryptions);
  EXPECT_EQ(b.offline_trials, s.offline_trials);
  ASSERT_EQ(b.stage_encryptions.size(), s.stage_encryptions.size());
  for (std::size_t i = 0; i < s.stage_encryptions.size(); ++i) {
    EXPECT_EQ(b.stage_encryptions[i], s.stage_encryptions[i]) << "stage " << i;
  }
}

TYPED_TEST(BatchConformance, IntermediateBatchSizesAlsoMatchScalar) {
  // The engine grows its batch adaptively up to max_batch; any ceiling
  // must land on the same result, not just the default 16.
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0xB4);
  typename KeyRecoveryEngine<Recovery>::Config scalar_cfg;
  scalar_cfg.max_batch = 1;
  const RecoveryResult<Recovery> s = recover_key<Recovery>(key, scalar_cfg);
  ASSERT_TRUE(s.success);
  for (unsigned cap : {2u, 5u, 32u}) {
    typename KeyRecoveryEngine<Recovery>::Config cfg;
    cfg.max_batch = cap;
    const RecoveryResult<Recovery> r = recover_key<Recovery>(key, cfg);
    EXPECT_EQ(r.recovered_key, s.recovered_key) << "max_batch " << cap;
    EXPECT_EQ(r.total_encryptions, s.total_encryptions) << "max_batch " << cap;
  }
}

TYPED_TEST(BatchConformance, BatchedBudgetExhaustionMatchesScalar) {
  // The encryption budget is checked per observation, so a batched run
  // must fail at exactly the same count as the scalar one.
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0xB5);
  typename KeyRecoveryEngine<Recovery>::Config scalar_cfg;
  scalar_cfg.max_batch = 1;
  scalar_cfg.max_encryptions = 3;
  typename KeyRecoveryEngine<Recovery>::Config batched_cfg;
  batched_cfg.max_batch = 16;
  batched_cfg.max_encryptions = 3;
  const RecoveryResult<Recovery> s = recover_key<Recovery>(key, scalar_cfg);
  const RecoveryResult<Recovery> b = recover_key<Recovery>(key, batched_cfg);
  EXPECT_EQ(b.success, s.success);
  EXPECT_EQ(b.stages_resolved, s.stages_resolved);
  EXPECT_EQ(b.total_encryptions, s.total_encryptions);
}

TYPED_TEST(BatchConformance, FaultyDecoratorBatchMatchesScalarDelivery) {
  // The decorator corrupts in delivery order: wrapping the platform and
  // observing a batch must produce the same corrupted elements (and fault
  // stats) as delivering the same plaintexts one by one.
  using Recovery = TypeParam;
  using Block = typename Recovery::Block;
  const Key128 key = this->victim_key(0xB6);
  const FaultProfile profile = FaultProfile::moderate();
  DirectProbePlatform<Recovery> scalar_inner{{}, key};
  DirectProbePlatform<Recovery> batch_inner{{}, key};
  FaultyObservationSource<Block> scalar{scalar_inner, profile};
  FaultyObservationSource<Block> batched{batch_inner, profile};
  Xoshiro256 rng{0xFA7B};
  std::vector<Block> pts;
  for (unsigned i = 0; i < 24; ++i) pts.push_back(Recovery::random_block(rng));
  ObservationBatch out;
  batched.observe_batch(pts, 0, out);
  ASSERT_EQ(out.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Observation o = scalar.observe(pts[i], 0);
    EXPECT_EQ(out[i].present, o.present) << "element " << i;
    EXPECT_EQ(out[i].dropped, o.dropped) << "element " << i;
  }
  EXPECT_EQ(batched.stats().dropped, scalar.stats().dropped);
  EXPECT_EQ(batched.stats().stale, scalar.stats().stale);
  EXPECT_EQ(batched.stats().bursts, scalar.stats().bursts);
  EXPECT_EQ(batched.stats().lines_flipped_absent,
            scalar.stats().lines_flipped_absent);
  EXPECT_EQ(batched.stats().lines_flipped_present,
            scalar.stats().lines_flipped_present);
}

TYPED_TEST(BatchConformance, BatchedEngineMatchesScalarEngineUnderFaults) {
  // Speculative batching against a faulty channel: discarded speculative
  // observations advance the fault streams inside observe_batch, so the
  // engine's rewind must make the batched run byte-identical to the
  // scalar one — including every noise counter.
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0xB7);
  typename KeyRecoveryEngine<Recovery>::Config scalar_cfg =
      KeyRecoveryEngine<Recovery>::Config::noisy_defaults();
  scalar_cfg.max_encryptions = 800000;
  scalar_cfg.faults = FaultProfile::moderate();
  scalar_cfg.max_batch = 1;
  typename KeyRecoveryEngine<Recovery>::Config batched_cfg = scalar_cfg;
  batched_cfg.max_batch = 16;
  const RecoveryResult<Recovery> s = recover_key<Recovery>(key, scalar_cfg);
  const RecoveryResult<Recovery> b = recover_key<Recovery>(key, batched_cfg);
  ASSERT_TRUE(s.success);
  ASSERT_TRUE(b.success);
  EXPECT_EQ(b.recovered_key, s.recovered_key);
  EXPECT_EQ(b.total_encryptions, s.total_encryptions);
  EXPECT_EQ(b.noise_restarts, s.noise_restarts);
  EXPECT_EQ(b.dropped_observations, s.dropped_observations);
  EXPECT_EQ(b.verify_restarts, s.verify_restarts);
  EXPECT_EQ(b.segment_resets, s.segment_resets);
  EXPECT_EQ(b.stage_encryptions, s.stage_encryptions);
}

TYPED_TEST(BatchConformance, CacheWithHistoryRunsUnbatched) {
  // A discarded speculative encryption still advances a FIFO cache, and
  // later verdicts read that history, so recover_key must not batch
  // there: the default config equals max_batch = 1 bit for bit.  The
  // trial is WideConformance's trial_specs(5, 0x51) trial 3, where a
  // batched GIFT-128 run ended with one stage_evidence presence count of
  // 37 against 38.
  using Recovery = TypeParam;
  using Config = typename KeyRecoveryEngine<Recovery>::Config;
  Xoshiro256 rng{Recovery::kDefaultSeed ^ 0x51 ^ 0x77DE};
  Key128 key{};
  Config batched = Config::noisy_defaults();
  for (unsigned t = 0; t <= 3; ++t) {
    key = Recovery::canonical_key(rng.key128());
    key.lo &= ~std::uint64_t{0xFFFF};
    batched.seed = rng.next();
    batched.faults.seed = rng.next();
  }
  const std::uint64_t fault_seed = batched.faults.seed;
  batched.faults = FaultProfile::moderate();
  batched.faults.seed = fault_seed;
  batched.max_encryptions = 10000;
  Config unbatched = batched;
  unbatched.max_batch = 1;
  typename DirectProbePlatform<Recovery>::Config fifo;
  fifo.cache.associativity = 2;
  fifo.cache.replacement = cachesim::Replacement::kFifo;
  const RecoveryResult<Recovery> b = recover_key<Recovery>(key, batched, fifo);
  const RecoveryResult<Recovery> s =
      recover_key<Recovery>(key, unbatched, fifo);
  EXPECT_EQ(b.success, s.success);
  EXPECT_EQ(b.recovered_key, s.recovered_key);
  EXPECT_EQ(b.total_encryptions, s.total_encryptions);
  EXPECT_EQ(b.stage_encryptions, s.stage_encryptions);
  EXPECT_EQ(b.noise_restarts, s.noise_restarts);
  EXPECT_EQ(b.dropped_observations, s.dropped_observations);
  EXPECT_EQ(b.segment_resets, s.segment_resets);
  EXPECT_EQ(b.verify_restarts, s.verify_restarts);
  EXPECT_EQ(b.failed_stage, s.failed_stage);
  EXPECT_EQ(b.surviving_masks, s.surviving_masks);
  ASSERT_EQ(b.stage_evidence.size(), s.stage_evidence.size());
  for (std::size_t i = 0; i < s.stage_evidence.size(); ++i) {
    EXPECT_EQ(b.stage_evidence[i].masks, s.stage_evidence[i].masks);
    EXPECT_EQ(b.stage_evidence[i].updates, s.stage_evidence[i].updates);
    EXPECT_EQ(b.stage_evidence[i].presence, s.stage_evidence[i].presence);
  }
}

}  // namespace
}  // namespace grinch::target
