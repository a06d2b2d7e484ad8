// The table-based implementation must be functionally identical to the
// spec implementation and must leak exactly the round-state nibbles.
#include "gift/table_gift.h"

#include <gtest/gtest.h>

#include <set>

#include "common/bits.h"
#include "common/rng.h"
#include "gift/gift64.h"

namespace grinch::gift {
namespace {

// A null TraceSink* runs the instrumented table loop without recording;
// the default NullSink would run the reference round these tests check
// it against.
constexpr TraceSink* kTableLoop = nullptr;

TEST(TableLayout, DefaultRowAddressing) {
  const TableLayout layout;
  EXPECT_EQ(layout.sbox_rows(), 16u);
  EXPECT_EQ(layout.sbox_row_addr(0), layout.sbox_base);
  EXPECT_EQ(layout.sbox_row_addr(5), layout.sbox_base + 5);
  EXPECT_EQ(layout.perm_row_addr(0, 0), layout.perm_base);
  EXPECT_EQ(layout.perm_row_addr(1, 0), layout.perm_base + 16 * 8);
}

TEST(TableLayout, PackedCountermeasureLayout) {
  TableLayout layout;
  layout.sbox_entries_per_row = 2;
  EXPECT_EQ(layout.sbox_rows(), 8u);
  EXPECT_EQ(layout.sbox_row_addr(0), layout.sbox_row_addr(1));
  EXPECT_NE(layout.sbox_row_addr(1), layout.sbox_row_addr(2));
}

TEST(TableGift64, MatchesSpecImplementation) {
  const TableGift64 table_impl;
  Xoshiro256 rng{50};
  for (int i = 0; i < 200; ++i) {
    const Key128 key = rng.key128();
    const std::uint64_t pt = rng.block64();
    EXPECT_EQ(table_impl.encrypt(pt, key, kTableLoop),
              Gift64::encrypt(pt, key));
  }
}

TEST(TableGift64, PartialRoundsMatchSpec) {
  const TableGift64 table_impl;
  Xoshiro256 rng{51};
  const Key128 key = rng.key128();
  const std::uint64_t pt = rng.block64();
  for (unsigned r = 0; r <= Gift64::kRounds; ++r) {
    EXPECT_EQ(table_impl.encrypt_rounds(pt, key, r, kTableLoop),
              Gift64::encrypt_rounds(pt, key, r));
  }
}

TEST(TableGift64, EmitsThirtyTwoAccessesPerRound) {
  const TableGift64 table_impl;
  VectorTraceSink sink;
  Xoshiro256 rng{52};
  (void)table_impl.encrypt(rng.block64(), rng.key128(), &sink);
  EXPECT_EQ(sink.accesses().size(),
            Gift64::kRounds * TableGift64::accesses_per_round());
  EXPECT_EQ(sink.rounds_seen(), Gift64::kRounds);
}

TEST(TableGift64, SBoxAccessIndicesAreTheRoundInputNibbles) {
  const TableGift64 table_impl;
  VectorTraceSink sink;
  Xoshiro256 rng{53};
  const Key128 key = rng.key128();
  const std::uint64_t pt = rng.block64();
  (void)table_impl.encrypt(pt, key, &sink);
  const auto states = Gift64::round_states(pt, key);

  for (const TableAccess& a : sink.accesses()) {
    if (a.kind != TableAccess::Kind::kSBox) continue;
    EXPECT_EQ(a.index, nibble(states[a.round], a.segment))
        << "round " << int(a.round) << " segment " << int(a.segment);
  }
}

TEST(TableGift64, SBoxAddressesFallInsideTable) {
  const TableGift64 table_impl;
  VectorTraceSink sink;
  Xoshiro256 rng{54};
  (void)table_impl.encrypt(rng.block64(), rng.key128(), &sink);
  const TableLayout& layout = table_impl.layout();
  for (const TableAccess& a : sink.accesses()) {
    if (a.kind == TableAccess::Kind::kSBox) {
      EXPECT_GE(a.addr, layout.sbox_base);
      EXPECT_LT(a.addr, layout.sbox_base + 16 * layout.sbox_row_bytes);
    } else {
      EXPECT_GE(a.addr, layout.perm_base);
      EXPECT_LT(a.addr, layout.perm_base + 16 * 16 * layout.perm_row_bytes);
    }
  }
}

TEST(TableGift64, RoundBeginIndicesAreMonotone) {
  const TableGift64 table_impl;
  VectorTraceSink sink;
  Xoshiro256 rng{55};
  (void)table_impl.encrypt(rng.block64(), rng.key128(), &sink);
  for (unsigned r = 0; r < Gift64::kRounds; ++r) {
    EXPECT_EQ(sink.round_begin_index(r),
              r * TableGift64::accesses_per_round());
  }
}

TEST(TableGift64, PackedLayoutStillEncryptsCorrectly) {
  TableLayout layout;
  layout.sbox_entries_per_row = 2;  // countermeasure 1 shape
  layout.sbox_row_bytes = 1;
  const TableGift64 packed{layout};
  Xoshiro256 rng{56};
  const Key128 key = rng.key128();
  const std::uint64_t pt = rng.block64();
  EXPECT_EQ(packed.encrypt(pt, key, kTableLoop), Gift64::encrypt(pt, key));
}

TEST(TableGift64, PackedLayoutHalvesDistinctSBoxAddresses) {
  TableLayout layout;
  layout.sbox_entries_per_row = 2;
  const TableGift64 packed{layout};
  VectorTraceSink sink;
  Xoshiro256 rng{57};
  (void)packed.encrypt(rng.block64(), rng.key128(), &sink);
  std::set<std::uint64_t> addrs;
  for (const TableAccess& a : sink.accesses()) {
    if (a.kind == TableAccess::Kind::kSBox) addrs.insert(a.addr);
  }
  EXPECT_LE(addrs.size(), 8u);
}

TEST(TableGift64, ClearResetsSink) {
  const TableGift64 table_impl;
  VectorTraceSink sink;
  Xoshiro256 rng{58};
  (void)table_impl.encrypt(rng.block64(), rng.key128(), &sink);
  ASSERT_FALSE(sink.accesses().empty());
  sink.clear();
  EXPECT_TRUE(sink.accesses().empty());
  EXPECT_EQ(sink.rounds_seen(), 0u);
}

}  // namespace
}  // namespace grinch::gift
