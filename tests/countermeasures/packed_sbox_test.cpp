#include "countermeasures/packed_sbox.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gift/gift64.h"
#include "target/observation.h"

namespace grinch::cm {
namespace {

TEST(PackedSBox, LayoutHasEightRows) {
  const gift::TableLayout layout = packed_sbox_layout();
  EXPECT_EQ(layout.sbox_rows(), 8u);
  EXPECT_EQ(layout.sbox_row_addr(0), layout.sbox_row_addr(1));
  EXPECT_NE(layout.sbox_row_addr(1), layout.sbox_row_addr(2));
}

TEST(PackedSBox, WholeTableFitsOneEightByteLine) {
  EXPECT_EQ(sbox_lines_occupied(packed_sbox_layout(), 8), 1u);
}

TEST(PackedSBox, DefaultLayoutSpreadsOverSixteenLines) {
  EXPECT_EQ(sbox_lines_occupied(gift::TableLayout{}, 1), 16u);
}

TEST(PackedSBox, DefaultLayoutWithEightByteLinesStillLeaksTwoLines) {
  // Without reshaping, 16 one-byte rows under 8-byte lines span 2 lines —
  // reshaping is what collapses the table into a single line.
  EXPECT_EQ(sbox_lines_occupied(gift::TableLayout{}, 8), 2u);
}

TEST(PackedSBox, CacheConfigUsesEightByteLines) {
  const cachesim::CacheConfig cfg = packed_sbox_cache();
  EXPECT_EQ(cfg.line_bytes, 8u);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(PackedSBox, FunctionalCorrectnessPreserved) {
  // The reshaped implementation is still GIFT-64.  A null TraceSink*
  // runs its table loop; the default NullSink would run the reference
  // round, which ignores the layout.
  const gift::TableGift64 protected_impl{packed_sbox_layout()};
  Xoshiro256 rng{1};
  for (int i = 0; i < 50; ++i) {
    const Key128 key = rng.key128();
    const std::uint64_t pt = rng.block64();
    EXPECT_EQ(
        protected_impl.encrypt(pt, key, static_cast<gift::TraceSink*>(nullptr)),
        gift::Gift64::encrypt(pt, key));
  }
}

TEST(PackedSBox, ObserverSeesSingleIndistinguishableLine) {
  const auto ids = target::compute_index_line_ids(packed_sbox_layout(), 8);
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(ids[i], 0u);
}

}  // namespace
}  // namespace grinch::cm
