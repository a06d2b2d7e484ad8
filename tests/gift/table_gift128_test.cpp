#include "gift/table_gift.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace grinch::gift {
namespace {

// A null TraceSink* runs the instrumented table loop without recording;
// the default NullSink would run the reference round these tests check
// it against.
constexpr TraceSink* kTableLoop = nullptr;

TEST(TableGift128, MatchesSpecImplementation) {
  const TableGift128 table_impl;
  Xoshiro256 rng{0x1281};
  for (int i = 0; i < 100; ++i) {
    const Key128 key = rng.key128();
    const State128 pt{rng.block64(), rng.block64()};
    EXPECT_EQ(table_impl.encrypt(pt, key, kTableLoop),
              Gift128::encrypt(pt, key));
  }
}

TEST(TableGift128, PartialRoundsMatchSpec) {
  const TableGift128 table_impl;
  Xoshiro256 rng{0x1282};
  const Key128 key = rng.key128();
  const State128 pt{rng.block64(), rng.block64()};
  for (unsigned r = 0; r <= Gift128::kRounds; r += 5) {
    EXPECT_EQ(table_impl.encrypt_rounds(pt, key, r, kTableLoop),
              Gift128::encrypt_rounds(pt, key, r));
  }
}

TEST(TableGift128, EmitsSixtyFourAccessesPerRound) {
  const TableGift128 table_impl;
  VectorTraceSink sink;
  Xoshiro256 rng{0x1283};
  (void)table_impl.encrypt({rng.block64(), rng.block64()}, rng.key128(),
                           &sink);
  EXPECT_EQ(sink.accesses().size(),
            Gift128::kRounds * TableGift128::accesses_per_round());
  EXPECT_EQ(sink.rounds_seen(), Gift128::kRounds);
}

TEST(TableGift128, SBoxIndicesAreRoundInputNibbles) {
  const TableGift128 table_impl;
  VectorTraceSink sink;
  Xoshiro256 rng{0x1284};
  const Key128 key = rng.key128();
  const State128 pt{rng.block64(), rng.block64()};
  (void)table_impl.encrypt(pt, key, &sink);
  const auto states = Gift128::round_states(pt, key);
  for (const TableAccess& a : sink.accesses()) {
    if (a.kind != TableAccess::Kind::kSBox) continue;
    EXPECT_EQ(a.index, states[a.round].nibble(a.segment))
        << "round " << int(a.round) << " segment " << int(a.segment);
  }
}

TEST(TableGift128, SharesTheSameSBoxAddressRangeAsGift64) {
  // Both variants index the identical 16-entry table, so a prober set up
  // for GIFT-64 monitors GIFT-128 victims unchanged.
  const TableLayout layout;
  const TableGift128 table_impl{layout};
  VectorTraceSink sink;
  Xoshiro256 rng{0x1285};
  (void)table_impl.encrypt({rng.block64(), rng.block64()}, rng.key128(),
                           &sink);
  for (const TableAccess& a : sink.accesses()) {
    if (a.kind == TableAccess::Kind::kSBox) {
      EXPECT_GE(a.addr, layout.sbox_base);
      EXPECT_LT(a.addr, layout.sbox_base + 16);
    }
  }
}

}  // namespace
}  // namespace grinch::gift
