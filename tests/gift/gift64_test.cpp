// Known-answer and property tests for the GIFT-64 reference implementation.
#include "gift/gift64.h"

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/hex.h"
#include "common/rng.h"
#include "oracle/layer_oracle.h"

namespace grinch::gift {
namespace {

struct Kat {
  const char* key;
  const char* plaintext;
  const char* ciphertext;
};

// Names each case by its key (unique per vector). Without this, gtest prints
// the struct's pointer bytes, so the test names change from run to run.
void PrintTo(const Kat& kat, std::ostream* os) { *os << kat.key; }

// Test vectors from the GIFT design document (eprint 2017/622, appendix).
constexpr Kat kKats[] = {
    {"00000000000000000000000000000000", "0000000000000000",
     "f62bc3ef34f775ac"},
    {"fedcba9876543210fedcba9876543210", "fedcba9876543210",
     "c1b71f66160ff587"},
    {"bd91731eb6bc2713a1f9f6ffc75044e7", "c450c7727a9b8a7d",
     "e3272885fa94ba8b"},
};

class Gift64Kat : public ::testing::TestWithParam<Kat> {};

TEST_P(Gift64Kat, EncryptMatchesPublishedVector) {
  const Kat& kat = GetParam();
  Key128 key;
  ASSERT_TRUE(Key128::from_hex(kat.key, key));
  const auto pt = parse_hex_u64(kat.plaintext);
  const auto ct = parse_hex_u64(kat.ciphertext);
  ASSERT_TRUE(pt && ct);
  EXPECT_EQ(Gift64::encrypt(*pt, key), *ct)
      << "got " << to_hex_u64(Gift64::encrypt(*pt, key));
}

TEST_P(Gift64Kat, DecryptMatchesPublishedVector) {
  const Kat& kat = GetParam();
  Key128 key;
  ASSERT_TRUE(Key128::from_hex(kat.key, key));
  const auto pt = parse_hex_u64(kat.plaintext);
  const auto ct = parse_hex_u64(kat.ciphertext);
  ASSERT_TRUE(pt && ct);
  EXPECT_EQ(Gift64::decrypt(*ct, key), *pt);
}

TEST_P(Gift64Kat, OracleCompositionMatchesPublishedVector) {
  // The per-bit oracle the differential tests below trust is itself
  // pinned to the published vectors.
  const Kat& kat = GetParam();
  Key128 key;
  ASSERT_TRUE(Key128::from_hex(kat.key, key));
  const auto pt = parse_hex_u64(kat.plaintext);
  const auto ct = parse_hex_u64(kat.ciphertext);
  ASSERT_TRUE(pt && ct);
  EXPECT_EQ(oracle::gift64_encrypt(*pt, key), *ct);
  EXPECT_EQ(oracle::gift64_decrypt(*ct, key), *pt);
}

INSTANTIATE_TEST_SUITE_P(PublishedVectors, Gift64Kat,
                         ::testing::ValuesIn(kKats));

TEST(Gift64, AddRoundKeyMatchesPerBitOracle) {
  Xoshiro256 rng{0xA64};
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t state = rng.block64();
    const RoundKey64 rk{static_cast<std::uint16_t>(rng.next()),
                        static_cast<std::uint16_t>(rng.next())};
    ASSERT_EQ(Gift64::add_round_key(state, rk),
              oracle::add_round_key64(state, rk))
        << "state " << to_hex_u64(state) << " u " << rk.u << " v " << rk.v;
  }
}

TEST(Gift64, EncryptDecryptMatchOracleComposition) {
  // The table-driven layers against the per-bit oracle layers composed
  // with the same key schedule and the stateful constant LFSR.
  Xoshiro256 rng{0xC64};
  for (int i = 0; i < 10000; ++i) {
    const Key128 key = rng.key128();
    const std::uint64_t block = rng.block64();
    ASSERT_EQ(Gift64::encrypt(block, key), oracle::gift64_encrypt(block, key))
        << "key " << key.to_hex() << " block " << to_hex_u64(block);
    ASSERT_EQ(Gift64::decrypt(block, key), oracle::gift64_decrypt(block, key))
        << "key " << key.to_hex() << " block " << to_hex_u64(block);
  }
}

TEST(Gift64, RoundFunctionsMatchOracle) {
  // Every round index on its own, which whole encryptions compose away:
  // the fused-table round, its inverse, and the zero-key round the
  // predictor reads as the pre-key state.  One-byte states reach every
  // fused-table entry; for the inverse-image entries, the state is the
  // one-byte state plus the round constant under a zero key, so the
  // lookups after AddRoundKey see the one-byte state itself.  Random
  // states do the rest.
  Xoshiro256 rng{0x64F0};
  const auto check = [](std::uint64_t state, const RoundKey64& rk,
                        unsigned r) {
    ASSERT_EQ(Gift64::round_function(state, rk, r),
              oracle::gift64_round(state, rk, r))
        << "round " << r << " state " << to_hex_u64(state);
    ASSERT_EQ(Gift64::inverse_round_function(state, rk, r),
              oracle::gift64_inverse_round(state, rk, r))
        << "round " << r << " state " << to_hex_u64(state);
    ASSERT_EQ(Gift64::round_function(state, RoundKey64{}, r),
              oracle::gift64_round(state, RoundKey64{}, r))
        << "round " << r << " state " << to_hex_u64(state);
  };
  const auto random_key = [&rng] {
    const std::uint64_t w = rng.next();
    return RoundKey64{static_cast<std::uint16_t>(w),
                      static_cast<std::uint16_t>(w >> 16)};
  };
  for (unsigned b = 0; b < 8; ++b) {
    for (std::uint64_t v = 0; v < 256; ++v) {
      const auto r = static_cast<unsigned>(v % 28);
      check(v << (8 * b), random_key(), r);
      const std::uint64_t constant =
          oracle::constant_bits(oracle::lfsr_constants<63>()[r], 63).lo;
      check((v << (8 * b)) ^ constant, RoundKey64{}, r);
    }
  }
  for (unsigned r = 0; r < Gift64::kRounds; ++r) {
    for (int i = 0; i < 1000; ++i) check(rng.block64(), random_key(), r);
  }
}

TEST(Gift64, RoundTripRandomKeys) {
  Xoshiro256 rng{0x64646464};
  for (int i = 0; i < 200; ++i) {
    const Key128 key = rng.key128();
    const std::uint64_t pt = rng.block64();
    EXPECT_EQ(Gift64::decrypt(Gift64::encrypt(pt, key), key), pt);
  }
}

TEST(Gift64, EncryptRoundsZeroIsIdentity) {
  Xoshiro256 rng{1};
  const Key128 key = rng.key128();
  const std::uint64_t pt = rng.block64();
  EXPECT_EQ(Gift64::encrypt_rounds(pt, key, 0), pt);
}

TEST(Gift64, EncryptRoundsFullMatchesEncrypt) {
  Xoshiro256 rng{2};
  const Key128 key = rng.key128();
  const std::uint64_t pt = rng.block64();
  EXPECT_EQ(Gift64::encrypt_rounds(pt, key, Gift64::kRounds),
            Gift64::encrypt(pt, key));
}

TEST(Gift64, RoundStatesAreConsistentWithPartialEncryption) {
  Xoshiro256 rng{3};
  const Key128 key = rng.key128();
  const std::uint64_t pt = rng.block64();
  const auto states = Gift64::round_states(pt, key);
  ASSERT_EQ(states.size(), Gift64::kRounds + 1);
  for (unsigned r = 0; r <= Gift64::kRounds; ++r) {
    EXPECT_EQ(states[r], Gift64::encrypt_rounds(pt, key, r)) << "round " << r;
  }
}

TEST(Gift64, FirstRoundIsKeyDependentOnlyThroughAddRoundKey) {
  // Round 1 output differs between two keys only in the 32 key-facing bits
  // (4i, 4i+1) — the SubCells/PermBits part of round 1 is key-independent.
  // This is the property GRINCH exploits.
  Xoshiro256 rng{4};
  const std::uint64_t pt = rng.block64();
  const Key128 k1 = rng.key128();
  const Key128 k2 = rng.key128();
  const std::uint64_t s1 = Gift64::encrypt_rounds(pt, k1, 1);
  const std::uint64_t s2 = Gift64::encrypt_rounds(pt, k2, 1);
  const std::uint64_t diff = s1 ^ s2;
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(bit(diff, 4 * i + 2), 0u);
    EXPECT_EQ(bit(diff, 4 * i + 3), 0u);
  }
}

TEST(Gift64, AvalancheSingleBitFlipChangesAboutHalfTheOutput) {
  Xoshiro256 rng{5};
  const Key128 key = rng.key128();
  double total = 0;
  constexpr int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    const std::uint64_t pt = rng.block64();
    const unsigned pos = static_cast<unsigned>(rng.uniform(64));
    const std::uint64_t c1 = Gift64::encrypt(pt, key);
    const std::uint64_t c2 = Gift64::encrypt(flip_bit(pt, pos), key);
    total += popcount(c1 ^ c2);
  }
  const double mean = total / kTrials;
  EXPECT_GT(mean, 28.0);
  EXPECT_LT(mean, 36.0);
}

TEST(Gift64, KeyAvalanche) {
  Xoshiro256 rng{6};
  const std::uint64_t pt = rng.block64();
  double total = 0;
  constexpr int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    const Key128 key = rng.key128();
    const unsigned pos = static_cast<unsigned>(rng.uniform(128));
    const std::uint64_t c1 = Gift64::encrypt(pt, key);
    const std::uint64_t c2 = Gift64::encrypt(pt, key.with_bit(pos, key.bit(pos) ^ 1u));
    total += popcount(c1 ^ c2);
  }
  const double mean = total / kTrials;
  EXPECT_GT(mean, 28.0);
  EXPECT_LT(mean, 36.0);
}

TEST(Gift64, DifferentKeysProduceDifferentCiphertexts) {
  Xoshiro256 rng{7};
  const std::uint64_t pt = rng.block64();
  const Key128 k1 = rng.key128();
  const Key128 k2 = rng.key128();
  ASSERT_NE(k1, k2);
  EXPECT_NE(Gift64::encrypt(pt, k1), Gift64::encrypt(pt, k2));
}

TEST(Gift64, InverseRoundFunctionInvertsRoundFunction) {
  Xoshiro256 rng{8};
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t s = rng.block64();
    const RoundKey64 rk{static_cast<std::uint16_t>(rng.next()),
                        static_cast<std::uint16_t>(rng.next())};
    const unsigned round = static_cast<unsigned>(rng.uniform(Gift64::kRounds));
    EXPECT_EQ(Gift64::inverse_round_function(
                  Gift64::round_function(s, rk, round), rk, round),
              s);
  }
}

}  // namespace
}  // namespace grinch::gift
