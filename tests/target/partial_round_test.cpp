// Partial-round fast-path equivalence for every instrumented table cipher.
//
// The observation hot path truncates the victim encryption at the probe
// point (encrypt_with_schedule with rounds < kRounds) and completes the
// ciphertext lazily.  That is only sound if a partial run is a true
// prefix of the full run: the emitted access trace must equal the first
// n rounds of the full trace bit for bit, and the partial state must
// match the keyed encrypt_rounds reference at every depth.  This suite
// pins that contract for TableGift64, TableGift128 and TablePresent80
// (docs/TARGETS.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/key128.h"
#include "common/rng.h"
#include "gift/gift128.h"
#include "gift/gift64.h"
#include "gift/table_gift.h"
#include "present/present.h"
#include "present/table_present.h"

namespace grinch {
namespace {

void expect_trace_prefix(const gift::VectorTraceSink& partial,
                         const gift::VectorTraceSink& full, unsigned rounds) {
  ASSERT_EQ(partial.rounds_seen(), rounds);
  const auto& p = partial.accesses();
  const auto& f = full.accesses();
  ASSERT_LE(p.size(), f.size());
  if (rounds > 0) {
    ASSERT_GE(full.rounds_seen(), rounds);
    if (full.rounds_seen() > rounds) {
      // The partial trace covers exactly the first `rounds` rounds.
      EXPECT_EQ(p.size(), full.round_begin_index(rounds));
    }
  } else {
    EXPECT_TRUE(p.empty());
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p[i].addr, f[i].addr) << "access " << i;
    EXPECT_EQ(p[i].kind, f[i].kind) << "access " << i;
    EXPECT_EQ(p[i].round, f[i].round) << "access " << i;
    EXPECT_EQ(p[i].segment, f[i].segment) << "access " << i;
    EXPECT_EQ(p[i].index, f[i].index) << "access " << i;
  }
}

/// The wide path's split run: rounds [0, f) without a sink, then
/// encrypt_rounds_from(f) with one, must return the one-call state and
/// emit exactly the one-call accesses of rounds f and later, at every f.
template <typename Cipher, typename Block, typename Schedule>
void expect_split_runs_match(const Cipher& cipher, Block pt,
                             const Schedule& schedule, unsigned rounds) {
  gift::VectorTraceSink whole;
  const Block want = cipher.encrypt_with_schedule(pt, schedule, rounds, &whole);
  const auto& w = whole.accesses();
  for (unsigned f = 0; f <= rounds; ++f) {
    SCOPED_TRACE("rounds " + std::to_string(rounds) + " split at " +
                 std::to_string(f));
    const Block before = cipher.encrypt_with_schedule(
        pt, schedule, f, static_cast<gift::NullSink*>(nullptr));
    gift::VectorTraceSink after;
    EXPECT_EQ(cipher.encrypt_rounds_from(before, schedule, f, rounds, &after),
              want);
    EXPECT_EQ(after.rounds_seen(), rounds - f);
    const std::size_t skip = f < rounds ? whole.round_begin_index(f) : w.size();
    const auto& a = after.accesses();
    ASSERT_EQ(a.size(), w.size() - skip);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].addr, w[skip + i].addr) << "access " << i;
      EXPECT_EQ(a[i].kind, w[skip + i].kind) << "access " << i;
      EXPECT_EQ(a[i].round, w[skip + i].round) << "access " << i;
      EXPECT_EQ(a[i].segment, w[skip + i].segment) << "access " << i;
      EXPECT_EQ(a[i].index, w[skip + i].index) << "access " << i;
    }
  }
}

TEST(PartialRound, SplitRunsMatchOneRunForEveryTableCipher) {
  Xoshiro256 rng{0x5917};
  {
    const gift::TableGift64 cipher;
    const auto schedule = cipher.make_schedule(rng.key128());
    for (const unsigned rounds : {5u, gift::Gift64::kRounds}) {
      expect_split_runs_match(cipher, rng.block64(), schedule, rounds);
    }
  }
  {
    const gift::TableGift128 cipher;
    const auto schedule = cipher.make_schedule(rng.key128());
    for (const unsigned rounds : {4u, gift::Gift128::kRounds}) {
      expect_split_runs_match(cipher, gift::State128{rng.block64(), rng.block64()},
                              schedule, rounds);
    }
  }
  {
    // Full depth is 31 rounds plus the whitening, which a split run must
    // apply exactly once, also when the split falls after the last round.
    const present::TablePresent80 cipher;
    const Key128 key{rng.block64() & 0xFFFF, rng.block64()};
    const auto schedule = present::TablePresent80::make_schedule(key);
    for (const unsigned rounds : {3u, present::Present80::kRounds}) {
      expect_split_runs_match(cipher, rng.block64(), schedule, rounds);
    }
  }
}

TEST(PartialRound, Gift64TraceIsExactPrefixOfFullTrace) {
  gift::TableGift64 cipher;
  Xoshiro256 rng{0x64};
  const Key128 key = rng.key128();
  const std::uint64_t pt = rng.block64();
  const auto schedule = cipher.make_schedule(key);
  gift::VectorTraceSink full;
  const std::uint64_t full_ct =
      cipher.encrypt_with_schedule(pt, schedule, gift::Gift64::kRounds, &full);
  EXPECT_EQ(full_ct, gift::Gift64::encrypt(pt, key));
  for (unsigned n : {0u, 1u, 2u, 7u, gift::Gift64::kRounds}) {
    gift::VectorTraceSink partial;
    const std::uint64_t state =
        cipher.encrypt_with_schedule(pt, schedule, n, &partial);
    expect_trace_prefix(partial, full, n);
    EXPECT_EQ(partial.accesses().size(),
              n * gift::TableGift64::accesses_per_round());
    // State matches the keyed partial reference at every depth.
    EXPECT_EQ(state, cipher.encrypt_rounds(pt, key, n)) << n;
  }
}

TEST(PartialRound, Gift64LazyCompletionMatchesDirectFullRun) {
  // Truncate-then-complete (the platform's last_ciphertext() path, which
  // completes on the default NullSink) must equal one uninterrupted full
  // run of the instrumented table loop (a null TraceSink*).
  gift::TableGift64 cipher;
  Xoshiro256 rng{0x65};
  const Key128 key = rng.key128();
  const auto schedule = cipher.make_schedule(key);
  for (unsigned i = 0; i < 8; ++i) {
    const std::uint64_t pt = rng.block64();
    gift::VectorTraceSink sink;
    (void)cipher.encrypt_with_schedule(pt, schedule, 2, &sink);
    const std::uint64_t completed =
        cipher.encrypt_with_schedule(pt, schedule, gift::Gift64::kRounds);
    const std::uint64_t direct = cipher.encrypt_with_schedule(
        pt, schedule, gift::Gift64::kRounds,
        static_cast<gift::TraceSink*>(nullptr));
    EXPECT_EQ(completed, direct) << i;
    EXPECT_EQ(direct, gift::Gift64::encrypt(pt, key)) << i;
  }
}

TEST(PartialRound, Gift128TraceIsExactPrefixOfFullTrace) {
  gift::TableGift128 cipher;
  Xoshiro256 rng{0x128};
  const Key128 key = rng.key128();
  const gift::State128 pt{rng.block64(), rng.block64()};
  const auto schedule = cipher.make_schedule(key);
  gift::VectorTraceSink full;
  const gift::State128 full_ct = cipher.encrypt_with_schedule(
      pt, schedule, gift::Gift128::kRounds, &full);
  EXPECT_EQ(full_ct, gift::Gift128::encrypt(pt, key));
  for (unsigned n : {0u, 1u, 3u, 11u, gift::Gift128::kRounds}) {
    gift::VectorTraceSink partial;
    const gift::State128 state =
        cipher.encrypt_with_schedule(pt, schedule, n, &partial);
    expect_trace_prefix(partial, full, n);
    EXPECT_EQ(partial.accesses().size(),
              n * gift::TableGift128::accesses_per_round());
    EXPECT_EQ(state, cipher.encrypt_rounds(pt, key, n)) << n;
  }
}

TEST(PartialRound, Present80TraceIsExactPrefixOfFullTrace) {
  present::TablePresent80 cipher;
  Xoshiro256 rng{0x80};
  const Key128 key{rng.block64() & 0xFFFF, rng.block64()};
  const std::uint64_t pt = rng.block64();
  const auto schedule = present::TablePresent80::make_schedule(key);
  gift::VectorTraceSink full;
  const std::uint64_t full_ct = cipher.encrypt_with_schedule(
      pt, schedule, present::Present80::kRounds, &full);
  EXPECT_EQ(full_ct, present::Present80::encrypt(pt, key));
  for (unsigned n : {0u, 1u, 4u, 13u, present::Present80::kRounds}) {
    gift::VectorTraceSink partial;
    const std::uint64_t state =
        cipher.encrypt_with_schedule(pt, schedule, n, &partial);
    expect_trace_prefix(partial, full, n);
    EXPECT_EQ(state, cipher.encrypt_rounds(pt, key, n)) << n;
  }
}

TEST(PartialRound, Present80WhiteningOnlyAtFullDepth) {
  // PRESENT's final whitening key is applied once all rounds have run;
  // a one-round-short partial state must differ from the ciphertext by
  // exactly more than the whitening XOR (it is a mid-round state), and
  // the full-depth schedule run must equal the reference.
  present::TablePresent80 cipher;
  Xoshiro256 rng{0x81};
  const Key128 key{rng.block64() & 0xFFFF, rng.block64()};
  const std::uint64_t pt = rng.block64();
  const auto schedule = present::TablePresent80::make_schedule(key);
  const std::uint64_t ct = present::Present80::encrypt(pt, key);
  EXPECT_EQ(
      cipher.encrypt_with_schedule(pt, schedule, present::Present80::kRounds),
      ct);
  const std::uint64_t partial = cipher.encrypt_with_schedule(
      pt, schedule, present::Present80::kRounds - 1);
  EXPECT_NE(partial, ct);
}

}  // namespace
}  // namespace grinch
