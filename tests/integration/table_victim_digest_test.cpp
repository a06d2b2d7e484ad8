// Golden digests of the instrumented table victims' access streams.
//
// TableGift64, TableGift128 and TablePresent80 report every table lookup
// to a sink, and the cache model replays that stream: every fixed-seed
// output and every leakcheck budget rests on it.  For each victim, 256
// fixed-seed (plaintext, key) pairs run at 1, 2, 5 and all rounds, on
// the default layout and on the packed-S-Box layout.  Every TableAccess
// field (address, kind, round, segment, index, in order), every round
// callback and every returned state folds into one 64-bit digest per
// sink, compared with a committed constant:
//   - a TraceSink* (virtual callbacks, leakcheck's sink) through
//     encrypt_rounds, which derives the round keys itself;
//   - a VectorTraceSink (the platforms' sink) through
//     encrypt_with_schedule;
//   - a static sink with no base class (the wide path's kind) through
//     encrypt_rounds_from, the run split at every round;
//   - the state alone, from the NullSink entry point (lazy ciphertext
//     completion).
// GIFT-64 also runs on the hardened UpdateKey schedule, every sink
// through encrypt_with_schedule.  A change to a victim's round loop that
// moves one event or one state bit breaks a digest here.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/key128.h"
#include "common/rng.h"
#include "countermeasures/hardened_schedule.h"
#include "countermeasures/packed_sbox.h"
#include "gift/table_gift.h"
#include "target/gift128_traits.h"
#include "target/gift64_traits.h"
#include "target/present80_traits.h"

namespace grinch {
namespace {

/// 64-bit multiply-xorshift accumulator.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    h_ = (h_ ^ v) * 0x9E3779B97F4A7C15ULL;
    h_ ^= h_ >> 29;
  }
  void add(const gift::State128& s) noexcept {
    add(s.hi);
    add(s.lo);
  }
  void add(const gift::TableAccess& a) noexcept {
    add(a.addr);
    add(std::uint64_t{static_cast<std::uint8_t>(a.kind)} << 24 |
        std::uint64_t{a.round} << 16 | std::uint64_t{a.segment} << 8 |
        a.index);
  }
  void round_begin(unsigned r) noexcept { add(0xB000 + std::uint64_t{r}); }
  void round_end(unsigned r) noexcept { add(0xE000 + std::uint64_t{r}); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0;
};

/// Folds every callback, dispatched through the TraceSink vtable.
class VirtualSink : public gift::TraceSink {
 public:
  explicit VirtualSink(Digest& d) : d_(d) {}
  void on_round_begin(unsigned round) override { d_.round_begin(round); }
  void on_access(const gift::TableAccess& access) override { d_.add(access); }
  void on_round_end(unsigned round) override { d_.round_end(round); }

 private:
  Digest& d_;
};

/// Folds every callback; no base class, so calls bind statically.
struct StaticSink {
  Digest* d;
  void on_round_begin(unsigned round) noexcept { d->round_begin(round); }
  void on_access(const gift::TableAccess& access) noexcept { d->add(access); }
  void on_round_end(unsigned round) noexcept { d->round_end(round); }
};

enum SinkKind : unsigned { kTraceSink, kVectorSink, kSplitSink, kNullState };
using Digests = std::array<std::uint64_t, 4>;
constexpr const char* kSinkNames[] = {"TraceSink*", "VectorTraceSink",
                                      "split static sink", "NullSink state"};

/// Runs one victim over every input, layout and round count.
/// `schedule_of(cipher, key)` gives the round keys; with `by_key` the
/// TraceSink* leg derives them itself through encrypt_rounds.
template <typename Traits, typename ScheduleOf>
Digests fold_victim(ScheduleOf schedule_of, bool by_key) {
  using Block = typename Traits::Block;
  using Cipher = typename Traits::TableCipher;
  std::array<Digest, 4> d;
  for (const gift::TableLayout& layout :
       {gift::TableLayout{}, cm::packed_sbox_layout()}) {
    const Cipher cipher{layout};
    Xoshiro256 rng{0x7AB1E5};
    for (unsigned i = 0; i < 256; ++i) {
      const Block pt = Traits::random_block(rng);
      const Key128 key = rng.key128();
      const auto schedule = schedule_of(cipher, key);
      for (const unsigned rounds : {1u, 2u, 5u, Traits::kRounds}) {
        VirtualSink virtual_sink{d[kTraceSink]};
        gift::TraceSink* trace = &virtual_sink;
        d[kTraceSink].add(
            by_key
                ? cipher.encrypt_rounds(pt, key, rounds, trace)
                : cipher.encrypt_with_schedule(pt, schedule, rounds, trace));

        gift::VectorTraceSink vec;
        d[kVectorSink].add(
            cipher.encrypt_with_schedule(pt, schedule, rounds, &vec));
        for (const gift::TableAccess& a : vec.accesses()) {
          d[kVectorSink].add(a);
        }
        for (unsigned r = 0; r < vec.rounds_seen(); ++r) {
          d[kVectorSink].add(vec.round_begin_index(r));
        }

        StaticSink split{&d[kSplitSink]};
        for (unsigned f = 0; f <= rounds; ++f) {
          const Block mid =
              cipher.encrypt_rounds_from(pt, schedule, 0, f, &split);
          d[kSplitSink].add(
              cipher.encrypt_rounds_from(mid, schedule, f, rounds, &split));
        }

        d[kNullState].add(cipher.encrypt_with_schedule(
            pt, schedule, rounds, static_cast<gift::NullSink*>(nullptr)));
      }
    }
  }
  return {d[0].value(), d[1].value(), d[2].value(), d[3].value()};
}

void expect_digests(const Digests& got, const Digests& want) {
  for (unsigned k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], want[k])
        << kSinkNames[k] << ": got 0x" << std::hex << got[k];
  }
}

const auto kStandardSchedule = [](const auto& cipher, const Key128& key) {
  return cipher.make_schedule(key);
};

TEST(TableVictimDigest, Gift64) {
  expect_digests(fold_victim<target::Gift64Traits>(kStandardSchedule, true),
                 {0x6adfe4d5ce385a74ULL, 0x70aa47b65f835568ULL,
                  0x120900ca4a336e3eULL, 0x889cd1d466dfbf71ULL});
}

TEST(TableVictimDigest, Gift128) {
  expect_digests(fold_victim<target::Gift128Traits>(kStandardSchedule, true),
                 {0x5d7ce85462d1375cULL, 0xcc4cddcb833453a8ULL,
                  0xa577aae9499315dcULL, 0xb124ed5d32344d68ULL});
}

TEST(TableVictimDigest, Present80) {
  expect_digests(
      fold_victim<target::Present80Traits>(kStandardSchedule, true),
      {0x6dab2956b707c4d7ULL, 0x2e9241304b2b34f3ULL, 0xb342d41aa53c17dbULL,
       0xfa338035a8bfbdebULL});
}

TEST(TableVictimDigest, Gift64HardenedSchedule) {
  const auto hardened = [](const auto& /*cipher*/, const Key128& key) {
    return cm::hardened_round_keys(key, gift::Gift64::kRounds);
  };
  expect_digests(fold_victim<target::Gift64Traits>(hardened, false),
                 {0xd1f8dcfdab13455cULL, 0x9d11faaceb692adcULL,
                  0xe15ce2f34d607372ULL, 0x0bd93e30e087f742ULL});
}

}  // namespace
}  // namespace grinch
