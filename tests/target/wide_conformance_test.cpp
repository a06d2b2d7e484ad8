// Registry-wide wide-path conformance suite.
//
// The wide observation contract (target/wide_observe.h): one
// WideObserveCore::run over jobs of one victim key must extract()
// bit-identical Observations to the same plaintexts observed through a
// DirectProbePlatform::observe() sequence — through the presence-bitmap
// shortcut where it applies and through the per-lane scalar lanes
// everywhere else (tripped capacity test, non-contiguous monitored lines,
// FIFO/PLRU/Random, prefetchers), at every batch width and across a
// sweep of line sizes, row strides, set counts, associativities, flush
// modes and probing rounds.  The multi-trial engine layered on it runs
// independent trials one after another, and each trial must equal the
// scalar recover_key() run with that trial's seeds, however the trial
// list is cut into run() calls (runner::make_wide_shards), on a fresh
// engine or one reused across trials, and at any thread count.
#include "target/wide_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "runner/thread_pool.h"
#include "runner/trial_runner.h"
#include "target/registry.h"

namespace grinch::target {
namespace {

template <typename Tuple>
struct AsTestTypes;
template <typename... Ts>
struct AsTestTypes<std::tuple<Ts...>> {
  using type = ::testing::Types<Ts...>;
};

using AllTargets = AsTestTypes<RegisteredRecoveries>::type;

// Stage keys have no operator== of their own (plain structs).
bool stage_key_equal(const gift::RoundKey64& a, const gift::RoundKey64& b) {
  return a.u == b.u && a.v == b.v;
}
bool stage_key_equal(const gift::RoundKey128& a, const gift::RoundKey128& b) {
  return a.u == b.u && a.v == b.v;
}
bool stage_key_equal(std::uint64_t a, std::uint64_t b) { return a == b; }

template <typename Recovery>
void expect_equal_results(const RecoveryResult<Recovery>& got,
                          const RecoveryResult<Recovery>& want,
                          const std::string& label) {
  EXPECT_EQ(got.success, want.success) << label;
  EXPECT_EQ(got.key_verified, want.key_verified) << label;
  EXPECT_EQ(got.stages_resolved, want.stages_resolved) << label;
  EXPECT_EQ(got.recovered_key, want.recovered_key) << label;
  EXPECT_EQ(got.total_encryptions, want.total_encryptions) << label;
  EXPECT_EQ(got.offline_trials, want.offline_trials) << label;
  EXPECT_EQ(got.stage_encryptions, want.stage_encryptions) << label;
  ASSERT_EQ(got.stage_keys.size(), want.stage_keys.size()) << label;
  for (std::size_t i = 0; i < want.stage_keys.size(); ++i) {
    EXPECT_TRUE(stage_key_equal(got.stage_keys[i], want.stage_keys[i]))
        << label << " stage " << i;
  }
  EXPECT_EQ(got.noise_restarts, want.noise_restarts) << label;
  EXPECT_EQ(got.dropped_observations, want.dropped_observations) << label;
  EXPECT_EQ(got.segment_resets, want.segment_resets) << label;
  EXPECT_EQ(got.verify_restarts, want.verify_restarts) << label;
  EXPECT_EQ(got.failed_stage, want.failed_stage) << label;
  EXPECT_EQ(got.surviving_masks, want.surviving_masks) << label;
  EXPECT_EQ(got.residual_key_bits, want.residual_key_bits) << label;
  // Residual-finisher fields (deterministic ones only — wall_seconds is
  // allowed to differ between runs).
  EXPECT_EQ(got.finisher.outcome, want.finisher.outcome) << label;
  EXPECT_EQ(got.finisher.candidates_tested, want.finisher.candidates_tested)
      << label;
  EXPECT_EQ(got.finisher.rank, want.finisher.rank) << label;
  EXPECT_EQ(got.finisher.frontier_rank, want.finisher.frontier_rank) << label;
  EXPECT_EQ(got.finisher.offline_trials, want.finisher.offline_trials)
      << label;
  EXPECT_EQ(got.finisher.search_space_bits, want.finisher.search_space_bits)
      << label;
  EXPECT_EQ(got.known_pairs, want.known_pairs) << label;
  ASSERT_EQ(got.stage_evidence.size(), want.stage_evidence.size()) << label;
  for (std::size_t i = 0; i < want.stage_evidence.size(); ++i) {
    EXPECT_EQ(got.stage_evidence[i].stage, want.stage_evidence[i].stage)
        << label;
    EXPECT_EQ(got.stage_evidence[i].assumed, want.stage_evidence[i].assumed)
        << label;
    EXPECT_EQ(got.stage_evidence[i].masks, want.stage_evidence[i].masks)
        << label;
    EXPECT_EQ(got.stage_evidence[i].updates, want.stage_evidence[i].updates)
        << label;
    EXPECT_EQ(got.stage_evidence[i].presence, want.stage_evidence[i].presence)
        << label;
  }
}

template <typename Recovery>
class WideConformance : public ::testing::Test {
 protected:
  static Key128 victim_key(std::uint64_t salt) {
    Xoshiro256 rng{Recovery::kDefaultSeed ^ salt};
    Key128 key = Recovery::canonical_key(rng.key128());
    // Zero the low 16 key-register bits so PRESENT's offline finalize
    // search exits on its first candidate (pure test speed; both sides
    // of every comparison run the identical search).
    key.lo &= ~std::uint64_t{0xFFFF};
    return Recovery::canonical_key(key);
  }

  /// N trial specs plus the matching scalar engine configs.
  static std::vector<WideTrialSpec> trial_specs(std::size_t n,
                                                std::uint64_t salt) {
    Xoshiro256 rng{Recovery::kDefaultSeed ^ salt ^ 0x77DE};
    std::vector<WideTrialSpec> specs;
    specs.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      WideTrialSpec spec;
      spec.victim_key = Recovery::canonical_key(rng.key128());
      spec.victim_key.lo &= ~std::uint64_t{0xFFFF};
      spec.seed = rng.next();
      spec.fault_seed = rng.next();
      specs.push_back(spec);
    }
    return specs;
  }

  /// The scalar reference for one spec: recover_key with the spec's
  /// engine seed (and its fault seed, when `config` has faults).
  static RecoveryResult<Recovery> scalar_reference(
      const WideTrialSpec& spec,
      typename KeyRecoveryEngine<Recovery>::Config config,
      const typename DirectProbePlatform<Recovery>::Config& platform = {}) {
    config.seed = spec.seed;
    config.faults.seed = spec.fault_seed;
    return recover_key<Recovery>(spec.victim_key, config, platform);
  }

  using Block = typename Recovery::Block;
  using Core = WideObserveCore<Recovery>;
  using PlatformConfig = typename DirectProbePlatform<Recovery>::Config;

  /// `width` random plaintexts.
  static std::vector<Block> random_blocks(Xoshiro256& rng, std::size_t width) {
    std::vector<Block> pts;
    pts.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      pts.push_back(Recovery::random_block(rng));
    }
    return pts;
  }

  /// Runs `pts` as one core.run() on `key` at `stage` — job i on backing
  /// lane i, or every job on lane 0 when `shared_lane` — and checks each
  /// lane against `scalar.observe()` over the same plaintexts in order,
  /// plus states_out against the truncated encryption.
  static void expect_run_matches_scalar(Core& core,
                                        DirectProbePlatform<Recovery>& scalar,
                                        const PlatformConfig& pconfig,
                                        const Key128& key, unsigned stage,
                                        const std::vector<Block>& pts,
                                        const std::string& label,
                                        bool shared_lane = false) {
    const typename Recovery::TableCipher cipher{pconfig.layout};
    const auto schedule = cipher.make_schedule(key);
    const ProbeWindow window =
        probe_window_for<Recovery>(stage, pconfig.probing_round);
    std::vector<typename Core::Job> jobs;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      jobs.push_back({&schedule, pts[i], window,
                      pconfig.use_flush ? window.monitored_from : 0u,
                      shared_lane ? 0u : static_cast<unsigned>(i)});
    }
    WideObservationBatch batch;
    std::vector<Block> states(pts.size());
    core.run(jobs, batch, states.data());
    ASSERT_EQ(batch.width(), pts.size()) << label;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const Observation o = scalar.observe(pts[i], stage);
      const Observation w = batch.extract(static_cast<unsigned>(i));
      ASSERT_EQ(w.present, o.present) << label << " lane " << i;
      EXPECT_EQ(w.probed_after_round, o.probed_after_round)
          << label << " lane " << i;
      EXPECT_EQ(w.attacker_cycles, o.attacker_cycles)
          << label << " lane " << i;
      EXPECT_EQ(w.dropped, o.dropped) << label << " lane " << i;
      EXPECT_TRUE(states[i] == cipher.encrypt_with_schedule(
                                   pts[i], schedule, window.emit_rounds))
          << label << " lane " << i;
    }
  }
};
TYPED_TEST_SUITE(WideConformance, AllTargets);

TYPED_TEST(WideConformance, ObserveWideBitIdenticalToScalar) {
  // One core and one scalar platform per configuration, both persisting
  // across stages 0-2, so later runs meet warm backing lanes.  The paper
  // default is swept over widths; the config sweep covers coarse lines
  // (line_bytes > 1), deeper probes (probing round > 1), shallow caches
  // where the shortcut's capacity test trips, a two-byte row stride
  // whose monitored lines are not contiguous at one-byte lines (the
  // shortcut never engages there), and tight geometries: few sets, with
  // ways just above the window's per-set load, where each monitored set
  // holds several monitored lines and the capacity test's probe-fill
  // term decides whether the shortcut may serve a job.
  using Recovery = TypeParam;
  using Block = typename Recovery::Block;
  using Core = WideObserveCore<Recovery>;
  const Key128 key = this->victim_key(0x3D);
  const unsigned stages = std::min(3u, Recovery::kStages);
  {
    const typename DirectProbePlatform<Recovery>::Config pconfig;
    DirectProbePlatform<Recovery> scalar{pconfig, key};
    Core core{pconfig.cache, pconfig.layout};
    Xoshiro256 rng{0x31DE};
    for (unsigned stage = 0; stage < stages; ++stage) {
      for (const std::size_t width : {std::size_t{1}, std::size_t{24},
                                      std::size_t{63}, std::size_t{64}}) {
        const std::vector<Block> pts = this->random_blocks(rng, width);
        this->expect_run_matches_scalar(
            core, scalar, pconfig, key, stage, pts,
            "default stage " + std::to_string(stage) + " width " +
                std::to_string(width));
      }
    }
  }
  struct Geometry {
    unsigned sets;
    unsigned ways;
  };
  // The paper's 64 sets, then tight geometries sized for a 32-access
  // round (GIFT-64, PRESENT-80) and for GIFT-128's 64-access round.
  constexpr Geometry kGeometries[] = {{64, 2}, {64, 4}, {64, 16}, {8, 17},
                                      {4, 17}, {4, 19}, {2, 19},  {2, 23},
                                      {8, 33}, {4, 33}, {4, 34}};
  Xoshiro256 rng{0x5EE9};
  for (const unsigned line_bytes : {1u, 2u, 4u, 8u}) {
    for (const unsigned row_bytes : {1u, 2u}) {
      for (const auto [sets, ways] : kGeometries) {
        for (const bool flush : {true, false}) {
          for (const unsigned probing_round : {1u, 2u, 5u}) {
            typename DirectProbePlatform<Recovery>::Config pconfig;
            pconfig.cache.line_bytes = line_bytes;
            pconfig.cache.num_sets = sets;
            pconfig.cache.associativity = ways;
            pconfig.layout.sbox_row_bytes = row_bytes;
            pconfig.use_flush = flush;
            pconfig.probing_round = probing_round;
            ASSERT_TRUE(Core::supported(pconfig.cache));
            DirectProbePlatform<Recovery> scalar{pconfig, key};
            Core core{pconfig.cache, pconfig.layout};
            for (unsigned stage = 0; stage < stages; ++stage) {
              const std::vector<Block> pts = this->random_blocks(rng, 64);
              this->expect_run_matches_scalar(
                  core, scalar, pconfig, key, stage, pts,
                  "line " + std::to_string(line_bytes) + " row " +
                      std::to_string(row_bytes) + " sets " +
                      std::to_string(sets) + " ways " +
                      std::to_string(ways) + " flush " +
                      std::to_string(flush) + " round " +
                      std::to_string(probing_round) + " stage " +
                      std::to_string(stage));
            }
          }
        }
      }
    }
  }
}

TYPED_TEST(WideConformance, FanOutTableMatchesTheLoops) {
  // The presence shortcut maps line verdicts to present rows through
  // per-byte tables; on every verdict word they must give what the
  // slot-then-row loops give.
  using Core = typename TestFixture::Core;
  using PlatformConfig = typename TestFixture::PlatformConfig;
  PlatformConfig packed;
  packed.layout.sbox_entries_per_row = 2;
  PlatformConfig two_words;
  two_words.cache.line_bytes = 2;
  for (const auto& [name, config] :
       {std::pair{"default", PlatformConfig{}},
        std::pair{"2 entries per row", packed},
        std::pair{"2-word lines", two_words}}) {
    SCOPED_TRACE(name);
    const Core core{config.cache, config.layout};
    EXPECT_NE(core.fan_out(0xFFFF), 0u);
    for (std::uint64_t bits = 0; bits < (1u << 16); ++bits) {
      ASSERT_EQ(core.fan_out_tabulated(bits), core.fan_out(bits)) << bits;
    }
  }
}

TYPED_TEST(WideConformance, ObserveWideWithoutFlushMatchesScalar) {
  // use_flush = false moves the attacker's flush before round 0, so the
  // shortcut must count every emitted round.
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0x3E);
  typename DirectProbePlatform<Recovery>::Config pconfig;
  pconfig.use_flush = false;
  DirectProbePlatform<Recovery> scalar{pconfig, key};
  WideObserveCore<Recovery> core{pconfig.cache, pconfig.layout};
  Xoshiro256 rng{0x0F1};
  this->expect_run_matches_scalar(core, scalar, pconfig, key, 0,
                                  this->random_blocks(rng, 16), "no flush");
}

TYPED_TEST(WideConformance, ObserveWideShallowCacheMatchesScalar) {
  // A 2-way LRU cache makes the presence shortcut's capacity test trip
  // (one probe fill plus a couple of window accesses exceed two ways), so
  // observations route through their scalar lanes — warm from the
  // previous stage's trips — and must still match the scalar platform,
  // whose cache carries a different history.
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0x40);
  typename DirectProbePlatform<Recovery>::Config pconfig;
  pconfig.cache.associativity = 2;
  ASSERT_TRUE(WideObserveCore<Recovery>::supported(pconfig.cache));
  DirectProbePlatform<Recovery> scalar{pconfig, key};
  WideObserveCore<Recovery> core{pconfig.cache, pconfig.layout};
  Xoshiro256 rng{0x5A110};
  for (unsigned stage = 0; stage < 2 && stage < Recovery::kStages; ++stage) {
    this->expect_run_matches_scalar(core, scalar, pconfig, key, stage,
                                    this->random_blocks(rng, 32),
                                    "2-way stage " + std::to_string(stage));
  }
}

TYPED_TEST(WideConformance, ObserveWideFallsBackOnUnsupportedConfig) {
  // FIFO replacement disables the shortcut, so every job runs on its
  // scalar lane.  With every job on one backing lane, that lane must
  // replay the scalar platform's observe() sequence exactly — including
  // the FIFO state each observation leaves for the next.
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0x3F);
  typename DirectProbePlatform<Recovery>::Config pconfig;
  pconfig.cache.replacement = cachesim::Replacement::kFifo;
  ASSERT_FALSE(WideObserveCore<Recovery>::supported(pconfig.cache));
  DirectProbePlatform<Recovery> scalar{pconfig, key};
  WideObserveCore<Recovery> core{pconfig.cache, pconfig.layout};
  Xoshiro256 rng{0xFB2};
  for (unsigned stage = 0; stage < 2 && stage < Recovery::kStages; ++stage) {
    this->expect_run_matches_scalar(core, scalar, pconfig, key, stage,
                                    this->random_blocks(rng, 9),
                                    "fifo stage " + std::to_string(stage),
                                    /*shared_lane=*/true);
  }
}

TYPED_TEST(WideConformance, ObserveWideBitIdenticalAtEveryWidth) {
  // Every lane of a batch, from one lane to all 64, must extract the
  // scalar pipeline's observation bit for bit.
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0x60);
  const typename DirectProbePlatform<Recovery>::Config pconfig;
  DirectProbePlatform<Recovery> scalar{pconfig, key};
  WideObserveCore<Recovery> core{pconfig.cache, pconfig.layout};
  Xoshiro256 rng{0x5EE6};
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{16}, std::size_t{63},
                                  std::size_t{64}}) {
    this->expect_run_matches_scalar(core, scalar, pconfig, key, 0,
                                    this->random_blocks(rng, width),
                                    "width " + std::to_string(width));
  }
}

TYPED_TEST(WideConformance, PerLaneFallbackMatchesScalarObserveSequences) {
  // The per-lane scalar lanes (target/wide_observe.h): on configurations
  // without the presence shortcut, every backing lane must replay the
  // scalar observe() pipeline against its own persistent cache — across
  // successive run() calls, after reset_lane_state(), and independently
  // of which batch position carries the lane.  Covered on FIFO
  // replacement and on a next-line prefetcher, the two unsupported
  // families.
  using Recovery = TypeParam;
  using Block = typename Recovery::Block;
  using Core = WideObserveCore<Recovery>;
  constexpr unsigned kLanes = 5;
  for (const bool prefetch : {false, true}) {
    typename DirectProbePlatform<Recovery>::Config pconfig;
    if (prefetch) {
      pconfig.cache.prefetch_lines = 1;
    } else {
      pconfig.cache.replacement = cachesim::Replacement::kFifo;
    }
    ASSERT_FALSE(Core::supported(pconfig.cache));
    Core core{pconfig.cache, pconfig.layout};

    typename Recovery::TableCipher cipher{pconfig.layout};
    Xoshiro256 rng{prefetch ? 0x9E7Cu : 0xF1F0u};
    std::vector<Key128> keys;
    std::vector<typename Recovery::TableCipher::Schedule> schedules;
    std::vector<std::unique_ptr<DirectProbePlatform<Recovery>>> refs;
    for (unsigned l = 0; l < kLanes; ++l) {
      keys.push_back(Recovery::canonical_key(rng.key128()));
      schedules.push_back(cipher.make_schedule(keys.back()));
    }

    // Two trials per lane: trial 1 re-seats every lane at a different
    // batch position (reversed), pinning that Job::lane — not the batch
    // slot — keys the persistent state.
    for (unsigned trial = 0; trial < 2; ++trial) {
      refs.clear();
      for (unsigned l = 0; l < kLanes; ++l) {
        refs.push_back(std::make_unique<DirectProbePlatform<Recovery>>(
            pconfig, keys[l]));
        core.reset_lane_state(l);
      }
      for (unsigned batch_no = 0; batch_no < 3; ++batch_no) {
        const unsigned stage = batch_no % std::min(2u, Recovery::kStages);
        const ProbeWindow window =
            probe_window_for<Recovery>(stage, pconfig.probing_round);
        const unsigned instrument_from =
            pconfig.use_flush ? window.monitored_from : 0;
        std::vector<Block> pts;
        std::vector<typename Core::Job> jobs;
        for (unsigned pos = 0; pos < kLanes; ++pos) {
          const unsigned lane = trial == 0 ? pos : kLanes - 1 - pos;
          pts.push_back(Recovery::random_block(rng));
          jobs.push_back({&schedules[lane], pts.back(), window,
                          instrument_from, lane});
        }
        WideObservationBatch out;
        core.run(jobs, out);
        ASSERT_EQ(out.width(), kLanes);
        for (unsigned pos = 0; pos < kLanes; ++pos) {
          const unsigned lane = trial == 0 ? pos : kLanes - 1 - pos;
          const Observation o = refs[lane]->observe(pts[pos], stage);
          const Observation w = out.extract(pos);
          ASSERT_EQ(w.present, o.present)
              << (prefetch ? "prefetch" : "fifo") << " trial " << trial
              << " batch " << batch_no << " lane " << lane;
          EXPECT_EQ(w.probed_after_round, o.probed_after_round);
          EXPECT_EQ(w.attacker_cycles, o.attacker_cycles);
        }
      }
    }
  }
}

TYPED_TEST(WideConformance, WideEngineLanesMatchScalarTrials) {
  // Each WideRecoveryEngine trial must equal the scalar recover_key run
  // with that trial's seeds, however the trials are cut into run()
  // calls.  The 2-way LRU cache trips the presence shortcut on most
  // observations, so those trials run on the scalar lane: its cache
  // persists across the trial's trips and is reset when the next trial
  // starts.
  using Recovery = TypeParam;
  constexpr std::size_t kTrials = 9;
  const auto specs = this->trial_specs(kTrials, 0x50);
  typename KeyRecoveryEngine<Recovery>::Config config;
  typename DirectProbePlatform<Recovery>::Config shallow;
  shallow.cache.associativity = 2;
  for (const auto& [name, platform] :
       {std::pair{"default", typename DirectProbePlatform<Recovery>::Config{}},
        std::pair{"2-way", shallow}}) {
    std::vector<RecoveryResult<Recovery>> refs;
    refs.reserve(kTrials);
    for (const WideTrialSpec& spec : specs) {
      refs.push_back(this->scalar_reference(spec, config, platform));
    }
    for (const unsigned width : {1u, 4u, 64u}) {
      WideRecoveryEngine<Recovery> engine{config, platform};
      std::vector<RecoveryResult<Recovery>> results;
      for (const runner::WideShard& shard :
           runner::make_wide_shards(kTrials, width)) {
        auto part = engine.run(
            std::span<const WideTrialSpec>(specs).subspan(shard.begin,
                                                          shard.width));
        for (auto& r : part) results.push_back(std::move(r));
      }
      ASSERT_EQ(results.size(), refs.size());
      for (std::size_t t = 0; t < refs.size(); ++t) {
        expect_equal_results(results[t], refs[t],
                             std::string{name} + " width " +
                                 std::to_string(width) + " trial " +
                                 std::to_string(t));
      }
    }
  }
}

TYPED_TEST(WideConformance, WideEngineLanesMatchScalarTrialsUnderFaults) {
  // Faulted lanes draw before the probe, and on LRU caches without a
  // prefetcher the engine does not simulate an encryption whose probe the
  // channel discards (target/wide_engine.h).  Each lane must still equal
  // the scalar recover_key run, which simulates every encryption: on the
  // paper default (the presence shortcut serves every job), on a 2-way
  // LRU cache (jobs trip the capacity test, so skipped ones would have
  // run on the lane's scalar platform), and on 2-way FIFO, Random and
  // next-line prefetch caches, where lane history changes verdicts and
  // nothing may be skipped.  The Random cache's replacement stream
  // carries every observation's history into the next, within a trial
  // and, without the per-trial lane reset, across trials of one run.
  // The saturating legs discard about two probes in three.  On the 2-way
  // caches the moderate channel defeats vote 2 and every trial spends
  // its budget, so those legs run a smaller one.  A trial replicates the
  // scalar engine at max_batch 1, which recover_key runs on the FIFO,
  // Random and prefetch caches whatever the config asks.
  using Recovery = TypeParam;
  using Config = typename KeyRecoveryEngine<Recovery>::Config;
  using PlatformConfig = typename DirectProbePlatform<Recovery>::Config;
  constexpr std::size_t kTrials = 5;
  const auto specs = this->trial_specs(kTrials, 0x51);
  Config moderate = Config::noisy_defaults();
  moderate.max_encryptions = 800000;
  moderate.faults = FaultProfile::moderate();
  Config saturating;
  saturating.vote_threshold = 16;
  saturating.max_encryptions = 4000;
  saturating.faults = FaultProfile::saturating();
  saturating.finish_partials = true;
  saturating.finish_max_candidates = 256;
  PlatformConfig lru2;
  lru2.cache.associativity = 2;
  PlatformConfig fifo;
  fifo.cache.associativity = 2;
  fifo.cache.replacement = cachesim::Replacement::kFifo;
  PlatformConfig random = fifo;
  random.cache.replacement = cachesim::Replacement::kRandom;
  PlatformConfig prefetch;
  prefetch.cache.associativity = 2;
  prefetch.cache.prefetch_lines = 1;
  ASSERT_TRUE(WideObserveCore<Recovery>::supported(lru2.cache));
  ASSERT_FALSE(WideObserveCore<Recovery>::supported(fifo.cache));
  ASSERT_FALSE(WideObserveCore<Recovery>::supported(random.cache));
  ASSERT_FALSE(WideObserveCore<Recovery>::supported(prefetch.cache));
  Config shallow_moderate = moderate;
  shallow_moderate.max_encryptions = 5000;
  for (const auto& [cache_name, platform] :
       {std::pair{"default", PlatformConfig{}}, std::pair{"2-way", lru2},
        std::pair{"fifo", fifo}, std::pair{"random", random},
        std::pair{"prefetch", prefetch}}) {
    const bool shallow = std::string{cache_name} != "default";
    for (const auto& [profile_name, config] :
         {std::pair{"moderate", shallow ? shallow_moderate : moderate},
          std::pair{"saturating", saturating}}) {
      std::vector<RecoveryResult<Recovery>> refs;
      refs.reserve(kTrials);
      for (const WideTrialSpec& spec : specs) {
        refs.push_back(this->scalar_reference(spec, config, platform));
      }
      for (const unsigned width : {1u, 64u}) {
        WideRecoveryEngine<Recovery> engine{config, platform};
        std::vector<RecoveryResult<Recovery>> results;
        for (const runner::WideShard& shard :
             runner::make_wide_shards(kTrials, width)) {
          auto part = engine.run(
              std::span<const WideTrialSpec>(specs).subspan(shard.begin,
                                                            shard.width));
          for (auto& r : part) results.push_back(std::move(r));
        }
        ASSERT_EQ(results.size(), refs.size());
        for (std::size_t t = 0; t < refs.size(); ++t) {
          expect_equal_results(results[t], refs[t],
                               std::string{profile_name} + " " + cache_name +
                                   " width " + std::to_string(width) +
                                   " trial " + std::to_string(t));
        }
      }
    }
  }
}

TYPED_TEST(WideConformance, ReusedEngineMatchesFreshEngines) {
  // A campaign worker keeps one engine and hands it trial after trial, so
  // consecutive run() calls on one engine must equal a fresh engine per
  // trial.  On the 2-way FIFO and Random caches every job runs on the
  // scalar lane, whose cache would carry one trial's history into the
  // next without the per-trial lane reset.  FIFO history rarely reaches
  // a verdict across a trial boundary (the flush empties the monitored
  // lines, and FIFO order only matters through leftover lines the next
  // trial hits); the Random cache's replacement stream always carries
  // over, so that case fails whenever the reset is missing.
  using Recovery = TypeParam;
  using Config = typename KeyRecoveryEngine<Recovery>::Config;
  using PlatformConfig = typename DirectProbePlatform<Recovery>::Config;
  constexpr std::size_t kTrials = 4;
  const auto specs = this->trial_specs(kTrials, 0x54);
  Config clean;
  clean.max_encryptions = 20000;
  Config saturating;
  saturating.vote_threshold = 16;
  saturating.max_encryptions = 4000;
  saturating.faults = FaultProfile::saturating();
  saturating.finish_partials = true;
  saturating.finish_max_candidates = 256;
  PlatformConfig fifo;
  fifo.cache.associativity = 2;
  fifo.cache.replacement = cachesim::Replacement::kFifo;
  PlatformConfig random = fifo;
  random.cache.replacement = cachesim::Replacement::kRandom;
  for (const auto& [cache_name, platform] :
       {std::pair{"default", PlatformConfig{}}, std::pair{"fifo", fifo},
        std::pair{"random", random}}) {
    for (const auto& [profile_name, config] :
         {std::pair{"clean", clean}, std::pair{"saturating", saturating}}) {
      WideRecoveryEngine<Recovery> reused{config, platform};
      for (std::size_t t = 0; t < kTrials; ++t) {
        const auto one = std::span<const WideTrialSpec>(specs).subspan(t, 1);
        const auto got = reused.run(one);
        WideRecoveryEngine<Recovery> fresh{config, platform};
        const auto want = fresh.run(one);
        ASSERT_EQ(got.size(), 1u);
        ASSERT_EQ(want.size(), 1u);
        expect_equal_results(got[0], want[0],
                             std::string{profile_name} + " " + cache_name +
                                 " trial " + std::to_string(t));
      }
    }
  }
}

TYPED_TEST(WideConformance, WideEngineFallsBackOnUnsupportedConfig) {
  // On a FIFO cache the engine must run every lane on its scalar
  // fallback platform with identical results.
  using Recovery = TypeParam;
  constexpr std::size_t kTrials = 3;
  const auto specs = this->trial_specs(kTrials, 0x52);
  typename KeyRecoveryEngine<Recovery>::Config config;
  typename DirectProbePlatform<Recovery>::Config platform;
  platform.cache.replacement = cachesim::Replacement::kFifo;
  std::vector<RecoveryResult<Recovery>> refs;
  for (const WideTrialSpec& spec : specs) {
    refs.push_back(this->scalar_reference(spec, config, platform));
  }
  WideRecoveryEngine<Recovery> engine{config, platform};
  const auto results = engine.run(specs);
  ASSERT_EQ(results.size(), refs.size());
  for (std::size_t t = 0; t < refs.size(); ++t) {
    expect_equal_results(results[t], refs[t],
                         "fallback trial " + std::to_string(t));
  }
}

TYPED_TEST(WideConformance, WideEngineRefusesProbeOptions) {
  // The wide path models the default probe only, so each probe option
  // must be refused up front rather than silently ignored.
  using Recovery = TypeParam;
  using PlatformConfig = typename DirectProbePlatform<Recovery>::Config;
  const typename KeyRecoveryEngine<Recovery>::Config config;
  PlatformConfig prime_probe;
  prime_probe.method = ProbeMethod::kPrimeProbe;
  PlatformConfig precise;
  precise.precise_probe = true;
  PlatformConfig trace;
  trace.capture_trace = true;
  PlatformConfig noise;
  noise.noise_accesses_per_round = 1;
  for (const PlatformConfig& platform : {prime_probe, precise, trace, noise}) {
    EXPECT_THROW(WideRecoveryEngine<Recovery>(config, platform),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(WideRecoveryEngine<Recovery>(config, PlatformConfig{}));
}

TYPED_TEST(WideConformance, ShardedWideRunsAreThreadCountInvariant) {
  // Shards dispatched across a ThreadPool (one engine per shard, disjoint
  // output slots) must reproduce the serial shard loop bit for bit — the
  // TSan job runs this against the race detector.
  using Recovery = TypeParam;
  constexpr std::size_t kTrials = 8;
  constexpr unsigned kWidth = 3;
  const auto specs = this->trial_specs(kTrials, 0x53);
  typename KeyRecoveryEngine<Recovery>::Config config;

  const auto shards = runner::make_wide_shards(kTrials, kWidth);
  std::vector<std::vector<RecoveryResult<Recovery>>> serial(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    WideRecoveryEngine<Recovery> engine{config};
    serial[i] = engine.run(std::span<const WideTrialSpec>(specs).subspan(
        shards[i].begin, shards[i].width));
  }

  for (const unsigned threads : {1u, 4u}) {
    runner::ThreadPool pool{threads};
    std::vector<std::vector<RecoveryResult<Recovery>>> parallel(shards.size());
    pool.parallel_for(shards.size(), [&](std::size_t i) {
      WideRecoveryEngine<Recovery> engine{config};
      parallel[i] = engine.run(std::span<const WideTrialSpec>(specs).subspan(
          shards[i].begin, shards[i].width));
    });
    for (std::size_t i = 0; i < shards.size(); ++i) {
      ASSERT_EQ(parallel[i].size(), serial[i].size());
      for (std::size_t t = 0; t < serial[i].size(); ++t) {
        expect_equal_results(parallel[i][t], serial[i][t],
                             std::to_string(threads) + " threads shard " +
                                 std::to_string(i) + " trial " +
                                 std::to_string(t));
      }
    }
  }
}

TEST(WideShards, CoverTrialsExactly) {
  const auto shards = runner::make_wide_shards(130, 64);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].width, 64u);
  EXPECT_EQ(shards[1].begin, 64u);
  EXPECT_EQ(shards[1].width, 64u);
  EXPECT_EQ(shards[2].begin, 128u);
  EXPECT_EQ(shards[2].width, 2u);
  EXPECT_TRUE(runner::make_wide_shards(0, 16).empty());
  // Width is clamped to [1, 64].
  EXPECT_EQ(runner::make_wide_shards(5, 0).size(), 5u);
  EXPECT_EQ(runner::make_wide_shards(200, 1000).front().width, 64u);
}

}  // namespace
}  // namespace grinch::target
