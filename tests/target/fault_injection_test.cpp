// Channel fault-injection suite: the FaultyObservationSource decorator
// (target/faulty_source.h), the per-lane FaultChannel the wide engine
// runs (target/fault_channel.h), and KeyRecoveryEngine's noise
// robustness (recovery_engine.h, docs/ROBUSTNESS.md).
//
// Channel half, on the decorator and on a bare FaultChannel alike: every
// fault mode behaves as documented (drops are flagged, flips act at
// cache-line granularity, stale replays the previous delivery), the
// fault stream is a deterministic function of the profile seed, and a
// draw that discards the probe delivers the same whatever it read.  The
// decorator alone: batch delivery corrupts identically to scalar
// delivery, and rewind_to() really does erase a discarded speculative
// tail from the channel state.
//
// Engine half, registry-wide: all three ciphers recover and verify the
// full key through the documented moderate mixed profile (with restarts
// reported), through each single fault type at low rate, identical runs
// are byte-identical, and a saturating channel yields the documented
// partial result — budget exhausted, surviving candidate masks that still
// contain the true candidates, and a nonzero residual brute-force cost.
#include "target/faulty_source.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gift/key_schedule.h"
#include "target/fault_channel.h"
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

/// StageKey equality across the registry (the GIFT round-key structs do
/// not define operator==; PRESENT's stage key is a plain integer).
template <typename StageKey>
bool stage_keys_equal(const StageKey& a, const StageKey& b) {
  if constexpr (std::is_integral_v<StageKey>) {
    return a == b;
  } else {
    return a.u == b.u && a.v == b.v;
  }
}

// ------------------------------------------------------------------ //
//  Channel unit tests (GIFT-64 direct-probe platform as the inner)    //
// ------------------------------------------------------------------ //

/// The two ways a fault profile reaches an observation: the decorator
/// around a platform, or a bare FaultChannel applied to the platform's
/// observations, as each wide-engine lane does.
enum class Transport { kDecorator, kChannel };
constexpr Transport kTransports[] = {Transport::kDecorator,
                                     Transport::kChannel};

const char* transport_name(Transport t) {
  return t == Transport::kDecorator ? "decorator" : "channel";
}

/// A GIFT-64 platform whose stage-0 observations pass through one
/// transport.
class FaultyGift64 {
 public:
  FaultyGift64(Transport transport, const Gift64Platform::Config& config,
               const Key128& key, const FaultProfile& profile)
      : transport_(transport),
        inner_(config, key),
        decorator_(inner_, profile),
        channel_(profile, inner_.layout(), inner_.index_line_ids()) {}
  FaultyGift64(const FaultyGift64&) = delete;
  FaultyGift64& operator=(const FaultyGift64&) = delete;

  Observation observe(std::uint64_t pt) {
    if (transport_ == Transport::kDecorator) return decorator_.observe(pt, 0);
    Observation o = inner_.observe(pt, 0);
    channel_.corrupt(o);
    return o;
  }
  [[nodiscard]] const FaultChannel::Stats& stats() const {
    return transport_ == Transport::kDecorator ? decorator_.stats()
                                               : channel_.stats();
  }
  [[nodiscard]] std::uint64_t last_ciphertext() const {
    return transport_ == Transport::kDecorator ? decorator_.last_ciphertext()
                                               : inner_.last_ciphertext();
  }
  [[nodiscard]] const Gift64Platform& inner() const { return inner_; }

 private:
  Transport transport_;
  Gift64Platform inner_;
  FaultyObservationSource<std::uint64_t> decorator_;
  FaultChannel channel_;
};

Key128 test_key(std::uint64_t salt) {
  Xoshiro256 rng{0xFA17 ^ salt};
  return rng.key128();
}

std::vector<std::uint64_t> test_blocks(unsigned n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  std::vector<std::uint64_t> pts;
  for (unsigned i = 0; i < n; ++i) pts.push_back(rng.block64());
  return pts;
}

TEST(FaultySource, ZeroRatesPassThrough) {
  const Key128 key = test_key(1);
  for (const Transport transport : kTransports) {
    SCOPED_TRACE(transport_name(transport));
    Gift64Platform reference{{}, key};
    FaultyGift64 faulty{transport, {}, key, FaultProfile::clean()};
    for (const std::uint64_t pt : test_blocks(16, 0x11)) {
      const Observation got = faulty.observe(pt);
      const Observation want = reference.observe(pt, 0);
      EXPECT_EQ(got.present, want.present);
      EXPECT_FALSE(got.dropped);
    }
    EXPECT_EQ(faulty.stats().observations, 16u);
    EXPECT_EQ(faulty.stats().dropped, 0u);
    EXPECT_EQ(faulty.stats().stale, 0u);
    EXPECT_EQ(faulty.stats().bursts, 0u);
    EXPECT_EQ(faulty.stats().lines_flipped_absent, 0u);
    EXPECT_EQ(faulty.stats().lines_flipped_present, 0u);
    EXPECT_EQ(faulty.last_ciphertext(), reference.last_ciphertext());
  }
}

TEST(FaultySource, StreamIsDeterministicInTheProfileSeed) {
  const Key128 key = test_key(2);
  const auto pts = test_blocks(64, 0x22);
  const FaultProfile profile = FaultProfile::moderate();
  for (const Transport transport : kTransports) {
    SCOPED_TRACE(transport_name(transport));
    auto run = [&](std::uint64_t seed) {
      FaultProfile p = profile;
      p.seed = seed;
      FaultyGift64 faulty{transport, {}, key, p};
      std::vector<std::uint64_t> words;
      for (const std::uint64_t pt : pts) {
        const Observation o = faulty.observe(pt);
        words.push_back(o.present.word() |
                        (std::uint64_t{o.dropped} << 63));
      }
      return words;
    };
    const auto a = run(0xDE7);
    EXPECT_EQ(a, run(0xDE7)) << "same seed must replay the same faults";
    EXPECT_NE(a, run(0xDE8)) << "a different seed must shift the faults";
  }
}

TEST(FaultySource, BatchCorruptsIdenticallyToScalar) {
  const Key128 key = test_key(3);
  const auto pts = test_blocks(32, 0x33);
  const FaultProfile profile = FaultProfile::moderate();
  Gift64Platform scalar_inner{{}, key};
  Gift64Platform batch_inner{{}, key};
  FaultyObservationSource<std::uint64_t> scalar{scalar_inner, profile};
  FaultyObservationSource<std::uint64_t> batched{batch_inner, profile};
  ObservationBatch out;
  batched.observe_batch(pts, 0, out);
  ASSERT_EQ(out.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Observation want = scalar.observe(pts[i], 0);
    EXPECT_EQ(out[i].present, want.present) << "element " << i;
    EXPECT_EQ(out[i].dropped, want.dropped) << "element " << i;
  }
}

TEST(FaultySource, RewindErasesTheDiscardedTail) {
  // Consume only a prefix of a speculative batch, rewind, then deliver
  // the rest scalar: the stitched sequence must equal an uninterrupted
  // scalar run over the consumed plaintexts.
  const Key128 key = test_key(4);
  const auto pts = test_blocks(12, 0x44);
  const FaultProfile profile = FaultProfile::moderate();
  constexpr std::size_t kConsumed = 5;

  Gift64Platform ref_inner{{}, key};
  FaultyObservationSource<std::uint64_t> reference{ref_inner, profile};
  std::vector<Observation> want;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i >= kConsumed && i < 8) continue;  // the discarded speculation
    want.push_back(reference.observe(pts[i], 0));
  }

  Gift64Platform inner{{}, key};
  FaultyObservationSource<std::uint64_t> faulty{inner, profile};
  ObservationBatch batch;
  faulty.observe_batch(std::span<const std::uint64_t>(pts.data(), 8), 0,
                       batch);
  faulty.rewind_to(kConsumed);
  std::vector<Observation> got(batch.begin(),
                               batch.begin() + kConsumed);
  for (std::size_t i = 8; i < pts.size(); ++i) {
    got.push_back(faulty.observe(pts[i], 0));
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].present, want[i].present) << "element " << i;
    EXPECT_EQ(got[i].dropped, want[i].dropped) << "element " << i;
  }
  EXPECT_EQ(faulty.stats().observations, want.size());
}

TEST(FaultySource, CertainDropsAreFlagged) {
  const Key128 key = test_key(5);
  FaultProfile p;
  p.dropped_rate = 1.0;
  for (const Transport transport : kTransports) {
    SCOPED_TRACE(transport_name(transport));
    FaultyGift64 faulty{transport, {}, key, p};
    for (const std::uint64_t pt : test_blocks(8, 0x55)) {
      const Observation o = faulty.observe(pt);
      EXPECT_TRUE(o.dropped);
      // The uninformative all-present set protects consumers that look
      // anyway: nothing can be eliminated from it.
      for (unsigned r = 0; r < faulty.inner().layout().sbox_rows(); ++r) {
        EXPECT_TRUE(o.present[r]);
      }
    }
    EXPECT_EQ(faulty.stats().dropped, 8u);
    // The encryption still happened: the ciphertext is the victim's.
    Gift64Platform reference{{}, key};
    (void)reference.observe(test_blocks(8, 0x55).back(), 0);
    EXPECT_EQ(faulty.last_ciphertext(), reference.last_ciphertext());
  }
}

TEST(FaultySource, CertainFlipsSaturateTheLineSet) {
  const Key128 key = test_key(6);
  FaultProfile evict;
  evict.false_absent_rate = 1.0;
  FaultProfile inject;
  inject.false_present_rate = 1.0;
  const std::uint64_t pt = test_blocks(1, 0x66)[0];
  for (const Transport transport : kTransports) {
    SCOPED_TRACE(transport_name(transport));
    FaultyGift64 all_absent{transport, {}, key, evict};
    FaultyGift64 all_present{transport, {}, key, inject};
    EXPECT_EQ(all_absent.observe(pt).present.word(), 0u);
    const Observation full = all_present.observe(pt);
    for (unsigned r = 0; r < all_present.inner().layout().sbox_rows(); ++r) {
      EXPECT_TRUE(full.present[r]);
    }
    EXPECT_GT(all_absent.stats().lines_flipped_absent, 0u);
    EXPECT_GT(all_present.stats().lines_flipped_present, 0u);
  }
}

TEST(FaultySource, FlipsActAtCacheLineGranularity) {
  // With two S-Box rows per cache line, corrupted observations must never
  // split a line: rows sharing a line id stay bit-equal.
  const Key128 key = test_key(7);
  Gift64Platform::Config cfg;
  cfg.cache.line_bytes = 2;  // sbox_row_bytes = 1 -> 2 rows per line
  FaultProfile p;
  p.false_absent_rate = 0.4;
  p.false_present_rate = 0.4;
  p.burst_rate = 0.1;
  for (const Transport transport : kTransports) {
    SCOPED_TRACE(transport_name(transport));
    FaultyGift64 faulty{transport, cfg, key, p};
    const std::vector<unsigned> ids = faulty.inner().index_line_ids();
    for (const std::uint64_t pt : test_blocks(64, 0x77)) {
      const Observation o = faulty.observe(pt);
      for (unsigned r = 1; r < faulty.inner().layout().sbox_rows(); ++r) {
        if (ids[r] == ids[r - 1]) {
          EXPECT_EQ(o.present[r], o.present[r - 1])
              << "rows " << r - 1 << "/" << r << " share line " << ids[r];
        }
      }
    }
  }
}

TEST(FaultySource, StaleReplaysThePreviousDelivery) {
  const Key128 key = test_key(8);
  FaultProfile p;
  p.stale_rate = 1.0;
  const auto pts = test_blocks(6, 0x88);
  for (const Transport transport : kTransports) {
    SCOPED_TRACE(transport_name(transport));
    FaultyGift64 faulty{transport, {}, key, p};
    // The first delivery has no predecessor to replay; afterwards every
    // observation repeats it verbatim.
    const Observation first = faulty.observe(pts[0]);
    for (std::size_t i = 1; i < pts.size(); ++i) {
      EXPECT_EQ(faulty.observe(pts[i]).present, first.present) << i;
    }
    EXPECT_EQ(faulty.stats().stale, pts.size() - 1);
  }
}

TEST(FaultySource, DiscardedProbesIgnoreTheObservation) {
  // The wide engine does not simulate an encryption whose draw discards
  // the probe; it delivers apply(draw, Observation{}) instead
  // (target/wide_engine.h).  That rests on this property: a discarding
  // draw delivers the same observation and leaves the same channel state
  // whatever the probe read.
  const Gift64Platform inner{{}, test_key(9)};
  const unsigned rows = inner.layout().sbox_rows();
  constexpr unsigned kObservations = 10000;
  struct Case {
    const char* name;
    FaultProfile profile;
    unsigned min_discarded;
    unsigned max_discarded;
  };
  FaultProfile dropped;
  dropped.dropped_rate = 1.0;
  FaultProfile stale;
  stale.stale_rate = 1.0;
  FaultProfile burst;
  burst.burst_rate = 1.0;
  burst.burst_length = 3;
  const Case cases[] = {
      {"moderate", FaultProfile::moderate(), 1, kObservations - 1},
      {"saturating", FaultProfile::saturating(), 1, kObservations - 1},
      {"dropped", dropped, kObservations, kObservations},
      {"stale", stale, kObservations - 1, kObservations - 1},
      {"burst", burst, kObservations, kObservations},
      {"clean", FaultProfile::clean(), 0, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FaultChannel channel{c.profile, inner.layout(), inner.index_line_ids()};
    Xoshiro256 rng{0xD15C};
    unsigned discarded = 0;
    for (unsigned i = 0; i < kObservations; ++i) {
      const FaultChannel::Draw d = channel.draw();
      Observation probe;
      probe.present = LineSet::from_word(rng.next(), rows);
      const bool discards = channel.discards_probe(d);
      if (i == 0 && c.profile.stale_rate == 1.0) {
        EXPECT_FALSE(discards) << "the first delivery has nothing to replay";
      }
      if (!discards) {
        channel.apply(d, probe);
        continue;
      }
      ++discarded;
      FaultChannel skipped = channel;
      Observation unread;
      skipped.apply(d, unread);
      channel.apply(d, probe);
      ASSERT_EQ(unread.present, probe.present) << "observation " << i;
      ASSERT_EQ(unread.dropped, probe.dropped) << "observation " << i;
      ASSERT_TRUE(skipped.state() == channel.state()) << "observation " << i;
    }
    EXPECT_GE(discarded, c.min_discarded);
    EXPECT_LE(discarded, c.max_discarded);
  }
}

/// The draw as a double compare, one stream loop at a time, with the
/// line masks in a vector: FaultChannel::draw() before it compared whole
/// numbers.  It runs on a copy of a channel's State.
FaultChannel::Draw double_compare_draw(const FaultProfile& p,
                                       const std::vector<std::uint64_t>& masks,
                                       FaultChannel::State& ch) {
  const auto hit = [](Xoshiro256& rng, double rate) {
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53 < rate;
  };
  FaultChannel::Draw d;
  if (p.burst_rate > 0.0 && ch.burst_remaining == 0 &&
      hit(ch.burst_rng, p.burst_rate)) {
    ch.burst_remaining = p.burst_length;
    d.burst_started = true;
  }
  d.dropped = p.dropped_rate > 0.0 && hit(ch.drop_rng, p.dropped_rate);
  d.stale = p.stale_rate > 0.0 && hit(ch.stale_rng, p.stale_rate);
  if (p.false_absent_rate > 0.0) {
    for (const std::uint64_t m : masks) {
      if (hit(ch.absent_rng, p.false_absent_rate)) d.evict_mask |= m;
    }
  }
  if (p.false_present_rate > 0.0) {
    for (const std::uint64_t m : masks) {
      if (hit(ch.present_rng, p.false_present_rate)) d.inject_mask |= m;
    }
  }
  if (ch.burst_remaining > 0) {
    --ch.burst_remaining;
    d.burst = true;
    for (const std::uint64_t m : masks) {
      if (ch.burst_rng.coin() != 0) d.garbage |= m;
    }
  }
  return d;
}

TEST(FaultThreshold, IsTheDoubleCompareBoundary) {
  // A draw k = next() >> 11 hits iff k * 2^-53 < rate; the channel tests
  // k < hit_threshold(rate) instead.  T - 1 must hit and T miss (when T
  // is a 53-bit value at all), and random draws must agree.
  const auto double_hit = [](std::uint64_t k, double rate) {
    return static_cast<double>(k) * 0x1.0p-53 < rate;
  };
  constexpr std::uint64_t kAll = std::uint64_t{1} << 53;
  const FaultProfile moderate = FaultProfile::moderate();
  const FaultProfile saturating = FaultProfile::saturating();
  const double rates[] = {moderate.false_absent_rate,
                          moderate.dropped_rate,
                          moderate.stale_rate,
                          moderate.burst_rate,
                          saturating.false_absent_rate,
                          saturating.false_present_rate,
                          saturating.dropped_rate,
                          saturating.stale_rate,
                          saturating.burst_rate,
                          0.5,
                          1.0,
                          1.5,
                          0x1.0p-60,
                          std::numeric_limits<double>::denorm_min()};
  Xoshiro256 rng{0x7B0};
  for (const double rate : rates) {
    SCOPED_TRACE(rate);
    const std::uint64_t t = FaultChannel::hit_threshold(rate);
    ASSERT_GE(t, 1u);
    ASSERT_LE(t, kAll);
    EXPECT_TRUE(double_hit(t - 1, rate));
    if (t < kAll) EXPECT_FALSE(double_hit(t, rate));
    if (rate >= 1.0) EXPECT_EQ(t, kAll);
    for (unsigned i = 0; i < 1000000; ++i) {
      const std::uint64_t k = rng.next() >> 11;
      ASSERT_EQ(k < t, double_hit(k, rate)) << k;
    }
  }
  EXPECT_EQ(FaultChannel::hit_threshold(0.0), 0u);
  EXPECT_EQ(FaultChannel::hit_threshold(-0.5), 0u);
}

TEST(FaultThreshold, DrawMatchesTheDoubleCompareDraw) {
  // Every Draw field and the State after each delivery must equal the
  // double-compare draw's, on profiles that exercise each mode alone
  // and together, for one-row and two-row lines.
  constexpr unsigned kDraws = 100000;
  FaultProfile absent;
  absent.false_absent_rate = 1.0;
  FaultProfile present;
  present.false_present_rate = 1.0;
  FaultProfile dropped;
  dropped.dropped_rate = 1.0;
  FaultProfile stale;
  stale.stale_rate = 1.0;
  FaultProfile burst;
  burst.burst_rate = 1.0;
  FaultProfile short_bursts = FaultProfile::saturating();
  short_bursts.burst_length = 1;
  const std::pair<const char*, FaultProfile> profiles[] = {
      {"moderate", FaultProfile::moderate()},
      {"saturating", FaultProfile::saturating()},
      {"absent", absent},
      {"present", present},
      {"dropped", dropped},
      {"stale", stale},
      {"burst", burst},
      {"burst_length 1", short_bursts}};
  for (const unsigned line_words : {1u, 2u}) {
    Gift64Platform::Config config;
    config.cache.line_bytes = line_words;
    const Gift64Platform inner{config, test_key(11)};
    const TableLayout& layout = inner.layout();
    const std::vector<unsigned> line_ids = inner.index_line_ids();
    std::vector<std::uint64_t> masks;
    for (unsigned r = 0; r < layout.sbox_rows(); ++r) {
      const unsigned line = line_ids[r * layout.sbox_entries_per_row];
      if (line >= masks.size()) masks.resize(line + 1, 0);
      masks[line] |= std::uint64_t{1} << r;
    }
    for (const auto& [name, profile] : profiles) {
      SCOPED_TRACE(std::string{name} + ", line words " +
                   std::to_string(line_words));
      FaultChannel channel{profile, layout, line_ids};
      FaultChannel reference = channel;
      Xoshiro256 rng{0xD7A3};
      for (unsigned i = 0; i < kDraws; ++i) {
        const FaultChannel::Draw got = channel.draw();
        FaultChannel::State st = reference.state();
        const FaultChannel::Draw want = double_compare_draw(profile, masks, st);
        reference.restore(st);
        ASSERT_EQ(got.garbage, want.garbage) << "draw " << i;
        ASSERT_EQ(got.evict_mask, want.evict_mask) << "draw " << i;
        ASSERT_EQ(got.inject_mask, want.inject_mask) << "draw " << i;
        ASSERT_EQ(got.burst_started, want.burst_started) << "draw " << i;
        ASSERT_EQ(got.burst, want.burst) << "draw " << i;
        ASSERT_EQ(got.dropped, want.dropped) << "draw " << i;
        ASSERT_EQ(got.stale, want.stale) << "draw " << i;
        Observation probe;
        probe.present = LineSet::from_word(rng.next(), layout.sbox_rows());
        Observation copy = probe;
        channel.apply(got, probe);
        reference.apply(want, copy);
        ASSERT_TRUE(channel.state() == reference.state()) << "draw " << i;
      }
    }
  }
}

// ------------------------------------------------------------------ //
//  Engine robustness, registry-wide                                   //
// ------------------------------------------------------------------ //

template <typename Recovery>
class FaultInjection : public ::testing::Test {
 protected:
  using Config = typename KeyRecoveryEngine<Recovery>::Config;

  static Key128 victim_key(std::uint64_t salt) {
    Xoshiro256 rng{Recovery::kDefaultSeed ^ salt};
    return Recovery::canonical_key(rng.key128());
  }

  /// Budget generous enough for the noisy profiles on every target (the
  /// engine stops as soon as it verifies, so headroom is free).
  static constexpr std::uint64_t kNoisyBudget = 800000;

  static Config noisy_config(const FaultProfile& faults) {
    Config cfg = Config::noisy_defaults();
    cfg.max_encryptions = kNoisyBudget;
    cfg.faults = faults;
    return cfg;
  }

  /// The true candidate value of every segment of `stage` (the value the
  /// cache channel is expected to resolve).
  static std::array<unsigned, Recovery::kSegments> true_candidates(
      const Key128& key, unsigned stage) {
    std::array<unsigned, Recovery::kSegments> truth{};
    if constexpr (std::is_same_v<Recovery, Present80Recovery>) {
      // RK0 = key-register bits 79..16; segment s holds nibble s.
      const std::uint64_t rk0 = (key.hi << 48) | (key.lo >> 16);
      for (unsigned s = 0; s < Recovery::kSegments; ++s) {
        truth[s] = static_cast<unsigned>((rk0 >> (4 * s)) & 0xF);
      }
    } else {
      gift::KeySchedule schedule{key, stage + 1};
      if constexpr (std::is_same_v<Recovery, Gift64Recovery>) {
        const gift::RoundKey64 rk = schedule.round_key64(stage);
        for (unsigned s = 0; s < Recovery::kSegments; ++s) {
          truth[s] = (((rk.u >> s) & 1u) << 1) | ((rk.v >> s) & 1u);
        }
      } else {
        const gift::RoundKey128 rk = schedule.round_key128(stage);
        for (unsigned s = 0; s < Recovery::kSegments; ++s) {
          truth[s] = (((rk.u >> s) & 1u) << 1) | ((rk.v >> s) & 1u);
        }
      }
    }
    return truth;
  }
};
TYPED_TEST_SUITE(FaultInjection, AllTargets);

TYPED_TEST(FaultInjection, TruthHelperMatchesCleanRecovery) {
  // Self-check of true_candidates(): a clean-channel run's stage keys
  // must decompose into exactly the candidates the helper predicts.
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0xF0);
  const auto r = recover_key<Recovery>(key);
  ASSERT_TRUE(r.success);
  for (unsigned stage = 0; stage < Recovery::kStages; ++stage) {
    const auto truth = this->true_candidates(key, stage);
    std::array<CandidateMask<Recovery::kCandidatesPerSegment>,
               Recovery::kSegments>
        masks{};
    for (unsigned s = 0; s < Recovery::kSegments; ++s) {
      masks[s].set_mask(static_cast<std::uint16_t>(1u << truth[s]));
    }
    EXPECT_TRUE(stage_keys_equal(Recovery::stage_key_from(masks),
                                 r.stage_keys[stage]))
        << "stage " << stage;
  }
}

TYPED_TEST(FaultInjection, RecoversThroughModerateProfile) {
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0x101);
  const auto cfg = this->noisy_config(FaultProfile::moderate());
  const auto r = recover_key<Recovery>(key, cfg);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.key_verified);
  EXPECT_EQ(r.recovered_key, key);
  EXPECT_GT(r.noise_restarts, 0u)
      << "the moderate profile must be noisy enough to force resets";
  EXPECT_GT(r.dropped_observations, 0u);
  EXPECT_LT(r.total_encryptions, cfg.max_encryptions);
}

TYPED_TEST(FaultInjection, RecoversUnderEachSingleFaultType) {
  using Recovery = TypeParam;
  struct Axis {
    const char* name;
    FaultProfile profile;
  };
  std::vector<Axis> axes;
  {
    FaultProfile p;
    p.false_absent_rate = 0.03;
    axes.push_back({"false_absent", p});
  }
  {
    FaultProfile p;
    p.false_present_rate = 0.05;
    axes.push_back({"false_present", p});
  }
  {
    FaultProfile p;
    p.dropped_rate = 0.15;
    axes.push_back({"dropped", p});
  }
  {
    FaultProfile p;
    p.stale_rate = 0.05;
    axes.push_back({"stale", p});
  }
  {
    FaultProfile p;
    p.burst_rate = 0.01;
    p.burst_length = 3;
    axes.push_back({"burst", p});
  }
  for (const Axis& axis : axes) {
    const Key128 key = this->victim_key(0xF2);
    const auto r =
        recover_key<Recovery>(key, this->noisy_config(axis.profile));
    EXPECT_TRUE(r.success) << axis.name;
    EXPECT_EQ(r.recovered_key, key) << axis.name;
  }
}

TYPED_TEST(FaultInjection, IdenticalRunsAreByteIdentical) {
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0xF3);
  const auto cfg = this->noisy_config(FaultProfile::moderate());
  const auto a = recover_key<Recovery>(key, cfg);
  const auto b = recover_key<Recovery>(key, cfg);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.recovered_key, b.recovered_key);
  EXPECT_EQ(a.total_encryptions, b.total_encryptions);
  EXPECT_EQ(a.noise_restarts, b.noise_restarts);
  EXPECT_EQ(a.dropped_observations, b.dropped_observations);
  EXPECT_EQ(a.verify_restarts, b.verify_restarts);
  EXPECT_EQ(a.segment_resets, b.segment_resets);
  EXPECT_EQ(a.stage_encryptions, b.stage_encryptions);
}

TYPED_TEST(FaultInjection, SaturatingChannelYieldsHonestPartialResult) {
  // docs/ROBUSTNESS.md: at saturating rates, harden the vote threshold
  // and accept the partial-result contract — the budget exhausts, and the
  // surviving masks must still contain the true candidates (wide masks
  // and no impostor lock-in), pricing the residual brute force honestly.
  // The threshold must comfortably exceed the profile's burst length (6):
  // a burst reports garbage occupancy, so it can fake up to burst_length
  // consecutive absences of the true candidate's line, and stale replays
  // can extend the run.
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0x101);
  typename TestFixture::Config cfg = TestFixture::Config::noisy_defaults();
  cfg.vote_threshold = 12;
  cfg.max_encryptions = 4000;
  cfg.faults = FaultProfile::saturating();
  const auto r = recover_key<Recovery>(key, cfg);
  EXPECT_FALSE(r.success);
  ASSERT_LT(r.failed_stage, Recovery::kStages);
  EXPECT_EQ(r.total_encryptions, cfg.max_encryptions);
  EXPECT_GT(r.residual_key_bits, 0.0);
  const auto truth = this->true_candidates(key, r.failed_stage);
  double check_bits = 0.0;
  for (unsigned s = 0; s < Recovery::kSegments; ++s) {
    ASSERT_NE(r.surviving_masks[s], 0u) << "segment " << s;
    EXPECT_TRUE((r.surviving_masks[s] >> truth[s]) & 1u)
        << "segment " << s << " eliminated the true candidate";
    check_bits += std::log2(
        static_cast<double>(std::popcount(r.surviving_masks[s])));
  }
  check_bits += static_cast<double>(Recovery::kStages - 1 - r.failed_stage) *
                Recovery::kSegments *
                std::log2(static_cast<double>(Recovery::kCandidatesPerSegment));
  EXPECT_DOUBLE_EQ(r.residual_key_bits, check_bits);
}

TYPED_TEST(FaultInjection, RobustnessKnobsAreInertOnACleanChannel) {
  // An explicit clean fault profile must be byte-identical to the plain
  // default engine: the robustness machinery stays inert without faults.
  using Recovery = TypeParam;
  const Key128 key = this->victim_key(0xF5);
  const auto plain = recover_key<Recovery>(key);
  typename TestFixture::Config cfg;
  cfg.faults = FaultProfile::clean();
  const auto knobs = recover_key<Recovery>(key, cfg);
  ASSERT_TRUE(plain.success);
  EXPECT_TRUE(knobs.success);
  EXPECT_EQ(knobs.recovered_key, plain.recovered_key);
  EXPECT_EQ(knobs.total_encryptions, plain.total_encryptions);
  EXPECT_EQ(knobs.stage_encryptions, plain.stage_encryptions);
  EXPECT_EQ(knobs.noise_restarts, 0u);
  EXPECT_EQ(knobs.dropped_observations, 0u);
  EXPECT_EQ(knobs.verify_restarts, 0u);
}

}  // namespace
}  // namespace grinch::target
