// Kernel registry conformance suite.
//
// The dispatch contract (cachesim/kernels/kernels.h) is that every
// compiled-in kernel is bit-identical to the `generic` reference for
// every input the callers can produce.  This suite pins the transpose and
// column-gather kernels against their bit-level definitions and the
// registry mechanics ScopedKernel relies on; the wide conformance suite
// (tests/target/wide_conformance_test.cpp) runs the consumers end to end
// under every kernel.
#include "cachesim/kernels/kernels.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace grinch::cachesim::kernels {
namespace {

std::vector<Kind> available_kinds() {
  std::vector<Kind> kinds;
  for (const Kind k : {Kind::kGeneric, Kind::kSwar, Kind::kAvx2}) {
    if (available(k)) kinds.push_back(k);
  }
  return kinds;
}

TEST(Kernels, RegistryMechanics) {
  // generic is unconditionally compiled in; the resolved default must be
  // executable; set_active round-trips through ScopedKernel.
  EXPECT_TRUE(available(Kind::kGeneric));
  EXPECT_TRUE(available(active().kind));
  const Kind before = active().kind;
  {
    ScopedKernel scope{Kind::kGeneric};
    EXPECT_EQ(active().kind, Kind::kGeneric);
    EXPECT_STREQ(active().name, "generic");
  }
  EXPECT_EQ(active().kind, before);
  for (const Kind k : available_kinds()) {
    EXPECT_EQ(ops(k).kind, k);
    EXPECT_NE(ops(k).name, nullptr);
    EXPECT_NE(ops(k).transpose_64x64, nullptr);
    EXPECT_NE(ops(k).gather_column, nullptr);
  }
}

TEST(Kernels, TransposeMatchesBitDefinition) {
  // out[r] bit c == in[c] bit r, checked against both the definition and
  // the generic kernel on dense random matrices plus the degenerate
  // all-zero / all-one / identity patterns.
  Xoshiro256 rng{0x7245};
  std::vector<std::array<std::uint64_t, 64>> inputs;
  inputs.push_back({});                                     // all zero
  inputs.emplace_back().fill(~std::uint64_t{0});            // all one
  auto& identity = inputs.emplace_back();
  for (unsigned i = 0; i < 64; ++i) identity[i] = std::uint64_t{1} << i;
  for (unsigned trial = 0; trial < 32; ++trial) {
    auto& m = inputs.emplace_back();
    for (std::uint64_t& w : m) w = rng.next();
  }
  for (const auto& in : inputs) {
    std::array<std::uint64_t, 64> want{};
    for (unsigned r = 0; r < 64; ++r) {
      for (unsigned c = 0; c < 64; ++c) {
        want[r] |= ((in[c] >> r) & 1) << c;
      }
    }
    for (const Kind k : available_kinds()) {
      std::array<std::uint64_t, 64> out{};
      ops(k).transpose_64x64(in.data(), out.data());
      EXPECT_EQ(out, want) << ops(k).name;
    }
  }
}

TEST(Kernels, GatherColumnMatchesBitDefinition) {
  // bit r of the result == (rows[r] >> column) & 1 for r < nrows, zero
  // above; every row count and a sample of columns.
  Xoshiro256 rng{0x6A7E};
  std::array<std::uint64_t, 64> rows{};
  for (std::uint64_t& w : rows) w = rng.next();
  for (unsigned nrows = 0; nrows <= 64; ++nrows) {
    for (const unsigned column : {0u, 1u, 17u, 31u, 32u, 62u, 63u}) {
      std::uint64_t want = 0;
      for (unsigned r = 0; r < nrows; ++r) {
        want |= ((rows[r] >> column) & 1) << r;
      }
      for (const Kind k : available_kinds()) {
        EXPECT_EQ(ops(k).gather_column(rows.data(), nrows, column), want)
            << ops(k).name << " nrows=" << nrows << " column=" << column;
      }
    }
  }
}

}  // namespace
}  // namespace grinch::cachesim::kernels
