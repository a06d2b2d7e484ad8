// Golden RecoveryResult digests for every registered cipher.
//
// recover_key runs on fixed seeds over three fault profiles (clean,
// moderate, saturating + finish) and four cache platforms (the paper's
// 16-way LRU, 2-way LRU, FIFO and a next-line prefetcher).  Each
// configuration folds the deterministic fields of a few results into one
// CRC-32 and compares it with a committed constant.  Crafting, index
// prediction, key assembly, finalize and the finisher all run the
// reference cipher arithmetic, so an optimisation of that arithmetic
// that moved any RNG draw, elimination decision or result field breaks a
// digest here.
//
// Campaign records are not folded: they serialise these same results,
// and the campaign suites byte-compare them across thread counts and
// resumes.  Wall-clock and floating-point fields (finisher wall_seconds,
// residual and search-space bits) stay out too.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <tuple>
#include <type_traits>

#include "common/crc32.h"
#include "common/rng.h"
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

enum Profile : unsigned { kClean, kModerate, kSaturatingFinish, kProfiles };
enum Cache : unsigned { kPaperLru, kTwoWayLru, kFifo, kPrefetch, kCaches };

constexpr const char* kProfileNames[kProfiles] = {"clean", "moderate",
                                                  "saturating+finish"};
constexpr const char* kCacheNames[kCaches] = {"paper-lru", "2-way-lru",
                                              "fifo", "prefetch"};

/// Results folded per configuration.
constexpr unsigned kTrials = 3;

using GoldenTable = std::array<std::array<std::uint32_t, kCaches>, kProfiles>;

/// Little-endian CRC-32 accumulator over integer fields.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    std::array<unsigned char, 8> bytes{};
    for (unsigned i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    crc_ = Crc32::update(crc_, bytes.data(), bytes.size());
  }
  [[nodiscard]] std::uint32_t value() const noexcept {
    return Crc32::finalize(crc_);
  }

 private:
  std::uint32_t crc_ = Crc32::kInit;
};

template <typename StageKey>
void add_stage_key(Digest& d, const StageKey& k) {
  if constexpr (std::is_integral_v<StageKey>) {
    d.add(k);
  } else {
    d.add(k.u);
    d.add(k.v);
  }
}

template <typename Block>
void add_block(Digest& d, const Block& b) {
  if constexpr (std::is_integral_v<Block>) {
    d.add(b);
  } else {
    d.add(b.hi);
    d.add(b.lo);
  }
}

template <typename Recovery>
void fold(Digest& d, const RecoveryResult<Recovery>& r) {
  d.add(r.success);
  d.add(r.key_verified);
  d.add(r.stages_resolved);
  d.add(r.recovered_key.hi);
  d.add(r.recovered_key.lo);
  d.add(r.total_encryptions);
  for (const std::uint64_t n : r.stage_encryptions) d.add(n);
  d.add(r.stage_keys.size());
  for (const auto& k : r.stage_keys) add_stage_key(d, k);
  d.add(r.noise_restarts);
  d.add(r.dropped_observations);
  for (const std::uint32_t n : r.segment_resets) d.add(n);
  d.add(r.verify_restarts);
  d.add(r.failed_stage);
  for (const std::uint16_t m : r.surviving_masks) d.add(m);
  d.add(r.offline_trials);
  d.add(static_cast<std::uint64_t>(r.finisher.outcome));
  d.add(r.finisher.rank);
  d.add(r.finisher.candidates_tested);
  d.add(r.finisher.frontier_rank);
  d.add(r.finisher.offline_trials);
  d.add(r.stage_evidence.size());
  for (const auto& e : r.stage_evidence) {
    d.add(e.stage);
    d.add(e.assumed);
    for (const std::uint16_t m : e.masks) d.add(m);
    for (const std::uint32_t n : e.updates) d.add(n);
    for (const auto& counts : e.presence) {
      for (const std::uint32_t n : counts) d.add(n);
    }
  }
  d.add(r.known_pairs.size());
  for (const auto& pair : r.known_pairs) {
    add_block(d, pair.plaintext);
    add_block(d, pair.ciphertext);
  }
}

template <typename Recovery>
typename KeyRecoveryEngine<Recovery>::Config engine_config(Profile profile,
                                                           unsigned trial) {
  using Config = typename KeyRecoveryEngine<Recovery>::Config;
  Config cfg;
  switch (profile) {
    case kClean:
      cfg.max_encryptions = 20000;
      break;
    case kModerate:
      cfg = Config::noisy_defaults();
      cfg.max_encryptions = 20000;
      cfg.faults = FaultProfile::moderate();
      break;
    case kSaturatingFinish:
      // The documented escalation recipe (docs/ROBUSTNESS.md) with a
      // small finisher budget: PRESENT spends a 2^16 loop per candidate.
      cfg = Config::noisy_defaults();
      cfg.vote_threshold = 16;
      cfg.max_encryptions = 4000;
      cfg.faults = FaultProfile::saturating();
      cfg.finish_partials = true;
      cfg.finish_max_candidates = 64;
      break;
    case kProfiles:
      break;
  }
  cfg.seed = Recovery::kDefaultSeed ^ (0x601D + 0x9E37 * trial);
  cfg.faults.seed ^= trial;
  return cfg;
}

template <typename Recovery>
typename DirectProbePlatform<Recovery>::Config platform_config(Cache cache) {
  typename DirectProbePlatform<Recovery>::Config p;
  switch (cache) {
    case kPaperLru:
      break;
    case kTwoWayLru:
      p.cache.associativity = 2;
      break;
    case kFifo:
      p.cache.replacement = cachesim::Replacement::kFifo;
      break;
    case kPrefetch:
      p.cache.prefetch_lines = 1;
      break;
    case kCaches:
      break;
  }
  return p;
}

template <typename Recovery>
Key128 victim_key(unsigned trial) {
  Xoshiro256 rng{Recovery::kDefaultSeed ^ (0x601DE4 + trial)};
  Key128 key = Recovery::canonical_key(rng.key128());
  // Zero the 16 key bits PRESENT's cache channel never sees, so its
  // exhaustive finalize search and finisher verification stop at the
  // first low-bit guess (test speed; GIFT keys are left whole).
  if constexpr (std::is_same_v<Recovery, Present80Recovery>) {
    key.lo &= ~std::uint64_t{0xFFFF};
  }
  return key;
}

template <typename Recovery>
std::uint32_t digest(Profile profile, Cache cache) {
  Digest d;
  for (unsigned trial = 0; trial < kTrials; ++trial) {
    fold(d, recover_key<Recovery>(victim_key<Recovery>(trial),
                                  engine_config<Recovery>(profile, trial),
                                  platform_config<Recovery>(cache)));
  }
  return d.value();
}

/// The committed digests, [profile][cache].
template <typename Recovery>
constexpr GoldenTable kGolden{};

template <>
constexpr GoldenTable kGolden<Gift64Recovery>{{
    {0xB7A342DB, 0xCB7331FF, 0xB7A342DB, 0x189ECBC4},
    {0x266C64E4, 0x66F422B3, 0x266C64E4, 0x9711984D},
    {0x7810B95E, 0x24CB5EF2, 0x7810B95E, 0xD4F1EED1},
}};

template <>
constexpr GoldenTable kGolden<Gift128Recovery>{{
    {0xD28BCE14, 0xAACCD235, 0xD28BCE14, 0xC18C89D4},
    {0xE4FF0F85, 0xF71D248A, 0xE4FF0F85, 0x4D54AE85},
    {0xE7724405, 0x14BCC567, 0xE7724405, 0xCE09FDAF},
}};

template <>
constexpr GoldenTable kGolden<Present80Recovery>{{
    {0x6FC2C229, 0x3F43C8E6, 0x6FC2C229, 0x13F45DA4},
    {0x0D12CCE1, 0xA0C5FE84, 0x0D12CCE1, 0x6A9B6133},
    {0xB373F83B, 0x6AD75135, 0xB373F83B, 0x3B833A4E},
}};

template <typename Recovery>
class GoldenDigest : public ::testing::Test {
 protected:
  static void expect_profile(Profile profile) {
    for (unsigned c = 0; c < kCaches; ++c) {
      const std::uint32_t got = digest<Recovery>(profile, Cache(c));
      char hex[16];
      std::snprintf(hex, sizeof hex, "0x%08X", got);
      EXPECT_EQ(got, kGolden<Recovery>[profile][c])
          << Recovery::kName << " " << kProfileNames[profile] << " on "
          << kCacheNames[c] << ": digest " << hex;
    }
  }
};
TYPED_TEST_SUITE(GoldenDigest, AllTargets);

TYPED_TEST(GoldenDigest, Clean) { TestFixture::expect_profile(kClean); }

TYPED_TEST(GoldenDigest, Moderate) { TestFixture::expect_profile(kModerate); }

TYPED_TEST(GoldenDigest, SaturatingFinish) {
  TestFixture::expect_profile(kSaturatingFinish);
}

}  // namespace
}  // namespace grinch::target
