// PenaltyEnumerator unit suite (finisher/enumerate.h): the maximum-
// likelihood enumeration order is exactly (total penalty ascending,
// rank vector lexicographically ascending), and every assignment appears
// exactly once.
#include "finisher/enumerate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

namespace grinch::finisher {
namespace {

using Ranks = std::vector<std::uint32_t>;
using Deltas = std::vector<std::vector<std::uint32_t>>;

/// All assignments in (penalty, lex) order by brute force: odometer
/// enumeration (lex order) + stable sort by penalty.
std::vector<Ranks> brute_force(const Deltas& deltas) {
  std::vector<Ranks> all;
  Ranks current(deltas.size(), 0);
  for (;;) {
    all.push_back(current);
    std::size_t j = deltas.size();
    while (j-- > 0) {
      if (++current[j] < deltas[j].size()) break;
      current[j] = 0;
      if (j == 0) {
        auto penalty = [&deltas](const Ranks& r) {
          std::uint64_t total = 0;
          for (std::size_t s = 0; s < r.size(); ++s) total += deltas[s][r[s]];
          return total;
        };
        std::stable_sort(all.begin(), all.end(),
                         [&](const Ranks& a, const Ranks& b) {
                           return penalty(a) < penalty(b);
                         });
        return all;
      }
    }
  }
}

std::vector<Ranks> drain(PenaltyEnumerator& enumerator) {
  std::vector<Ranks> out;
  Ranks ranks;
  while (enumerator.next(ranks)) out.push_back(ranks);
  return out;
}

TEST(FinisherEnumerate, MatchesBruteForceOrder) {
  const std::vector<Deltas> spaces = {
      {{0, 1, 3}, {0, 2}, {0, 0, 5}},          // ties inside a slot
      {{0, 5}, {0, 1}},                        // suffix-max pruning path
      {{0, 5}, {0, 7}},                        // sparse levels
      {{0}, {0, 3, 3, 9}, {0}},                // singleton slots
      {{0, 1}, {0, 1}, {0, 1}, {0, 1}},        // dense hypercube
      {{0, 2, 2, 4}, {0, 0, 6}, {0, 10}},      // mixed ties and gaps
      {{1, 4}, {2, 2}},                        // nonzero best deltas
  };
  for (std::size_t i = 0; i < spaces.size(); ++i) {
    PenaltyEnumerator enumerator{spaces[i]};
    EXPECT_EQ(drain(enumerator), brute_force(spaces[i])) << "space " << i;
  }
}

TEST(FinisherEnumerate, EveryAssignmentExactlyOnce) {
  const Deltas deltas = {{0, 1, 7, 7}, {0, 0, 2}, {0, 4}, {0, 1, 1}};
  PenaltyEnumerator enumerator{deltas};
  const std::vector<Ranks> all = drain(enumerator);
  std::size_t space = 1;
  for (const auto& d : deltas) space *= d.size();
  EXPECT_EQ(all.size(), space);
  EXPECT_EQ(std::set<Ranks>(all.begin(), all.end()).size(), space);
  EXPECT_TRUE(enumerator.exhausted());
}

TEST(FinisherEnumerate, PenaltyIsMonotone) {
  const Deltas deltas = {{0, 3, 3}, {0, 1, 9}, {0, 2}};
  PenaltyEnumerator enumerator{deltas};
  Ranks ranks;
  std::uint64_t last = 0;
  while (enumerator.next(ranks)) {
    EXPECT_GE(enumerator.penalty(), last);
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < ranks.size(); ++s) {
      total += deltas[s][ranks[s]];
    }
    EXPECT_EQ(total, enumerator.penalty());
    last = enumerator.penalty();
  }
}

TEST(FinisherEnumerate, EmptySlotMakesTheSpaceEmpty) {
  PenaltyEnumerator enumerator{{{0, 1}, {}, {0}}};
  Ranks ranks;
  EXPECT_FALSE(enumerator.next(ranks));
  EXPECT_TRUE(enumerator.exhausted());
}

TEST(FinisherEnumerate, NoSlotsYieldsOneEmptyAssignment) {
  PenaltyEnumerator enumerator{{}};
  Ranks ranks{1, 2, 3};
  ASSERT_TRUE(enumerator.next(ranks));
  EXPECT_TRUE(ranks.empty());
  EXPECT_FALSE(enumerator.next(ranks));
}

TEST(FinisherEnumerate, SpaceBitsIsTheLogProduct) {
  PenaltyEnumerator enumerator{{{0, 1, 2, 3}, {0, 1}, {0}}};
  EXPECT_DOUBLE_EQ(enumerator.space_bits(), 3.0);  // log2(4 * 2 * 1)
}

}  // namespace
}  // namespace grinch::finisher
