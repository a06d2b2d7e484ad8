// Known-answer and property tests for GIFT-128.
#include "gift/gift128.h"

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/hex.h"
#include "common/rng.h"
#include "oracle/layer_oracle.h"

namespace grinch::gift {
namespace {

State128 state_from_hex(const std::string& hex) {
  EXPECT_EQ(hex.size(), 32u);
  return State128{parse_hex_u64(hex.substr(0, 16)).value(),
                  parse_hex_u64(hex.substr(16, 16)).value()};
}

std::string state_to_hex(const State128& s) {
  return to_hex_u64(s.hi) + to_hex_u64(s.lo);
}

struct Kat {
  const char* key;
  const char* plaintext;
  const char* ciphertext;
};

// Names each case by its key (unique per vector). Without this, gtest prints
// the struct's pointer bytes, so the test names change from run to run.
void PrintTo(const Kat& kat, std::ostream* os) { *os << kat.key; }

// Test vectors from the GIFT design document (eprint 2017/622, appendix);
// also used by the GIFT-COFB NIST LWC submission.
constexpr Kat kKats[] = {
    {"00000000000000000000000000000000", "00000000000000000000000000000000",
     "cd0bd738388ad3f668b15a36ceb6ff92"},
    {"fedcba9876543210fedcba9876543210", "fedcba9876543210fedcba9876543210",
     "8422241a6dbf5a9346af468409ee0152"},
    {"d0f5c59a7700d3e799028fa9f90ad837", "e39c141fa57dba43f08a85b6a91f86c1",
     "13ede67cbdcc3dbf400a62d6977265ea"},
};

class Gift128Kat : public ::testing::TestWithParam<Kat> {};

TEST_P(Gift128Kat, EncryptMatchesPublishedVector) {
  const Kat& kat = GetParam();
  Key128 key;
  ASSERT_TRUE(Key128::from_hex(kat.key, key));
  const State128 pt = state_from_hex(kat.plaintext);
  const State128 ct = Gift128::encrypt(pt, key);
  EXPECT_EQ(state_to_hex(ct), kat.ciphertext);
}

TEST_P(Gift128Kat, DecryptMatchesPublishedVector) {
  const Kat& kat = GetParam();
  Key128 key;
  ASSERT_TRUE(Key128::from_hex(kat.key, key));
  const State128 ct = state_from_hex(kat.ciphertext);
  EXPECT_EQ(state_to_hex(Gift128::decrypt(ct, key)), kat.plaintext);
}

TEST_P(Gift128Kat, OracleCompositionMatchesPublishedVector) {
  const Kat& kat = GetParam();
  Key128 key;
  ASSERT_TRUE(Key128::from_hex(kat.key, key));
  const State128 pt = state_from_hex(kat.plaintext);
  const State128 ct = state_from_hex(kat.ciphertext);
  EXPECT_EQ(oracle::gift128_encrypt(pt, key), ct);
  EXPECT_EQ(oracle::gift128_decrypt(ct, key), pt);
}

INSTANTIATE_TEST_SUITE_P(PublishedVectors, Gift128Kat,
                         ::testing::ValuesIn(kKats));

TEST(Gift128, AddRoundKeyMatchesPerBitOracle) {
  Xoshiro256 rng{0xA128};
  for (int i = 0; i < 10000; ++i) {
    const State128 state{rng.block64(), rng.block64()};
    const RoundKey128 rk{static_cast<std::uint32_t>(rng.next()),
                         static_cast<std::uint32_t>(rng.next())};
    ASSERT_EQ(Gift128::add_round_key(state, rk),
              oracle::add_round_key128(state, rk))
        << "state " << state_to_hex(state) << " u " << rk.u << " v " << rk.v;
  }
}

TEST(Gift128, EncryptDecryptMatchOracleComposition) {
  Xoshiro256 rng{0xC128};
  for (int i = 0; i < 10000; ++i) {
    const Key128 key = rng.key128();
    const State128 block{rng.block64(), rng.block64()};
    ASSERT_EQ(Gift128::encrypt(block, key), oracle::gift128_encrypt(block, key))
        << "key " << key.to_hex() << " block " << state_to_hex(block);
    ASSERT_EQ(Gift128::decrypt(block, key), oracle::gift128_decrypt(block, key))
        << "key " << key.to_hex() << " block " << state_to_hex(block);
  }
}

TEST(Gift128, RoundFunctionsMatchOracle) {
  // As Gift64.RoundFunctionsMatchOracle: every round index, both
  // directions and the zero-key pre-key round; one-byte states for every
  // fused-table entry, the same plus the round constant under a zero key
  // for every inverse-image entry, and random states.
  Xoshiro256 rng{0x128F0};
  const auto check = [](State128 state, const RoundKey128& rk, unsigned r) {
    ASSERT_EQ(Gift128::round_function(state, rk, r),
              oracle::gift128_round(state, rk, r))
        << "round " << r << " state " << state_to_hex(state);
    ASSERT_EQ(Gift128::inverse_round_function(state, rk, r),
              oracle::gift128_inverse_round(state, rk, r))
        << "round " << r << " state " << state_to_hex(state);
    ASSERT_EQ(Gift128::round_function(state, RoundKey128{}, r),
              oracle::gift128_round(state, RoundKey128{}, r))
        << "round " << r << " state " << state_to_hex(state);
  };
  const auto random_key = [&rng] {
    const std::uint64_t w = rng.next();
    return RoundKey128{static_cast<std::uint32_t>(w),
                       static_cast<std::uint32_t>(w >> 32)};
  };
  for (unsigned b = 0; b < 8; ++b) {
    for (std::uint64_t v = 0; v < 256; ++v) {
      const auto r = static_cast<unsigned>(v % 40);
      const State128 constant =
          oracle::constant_bits(oracle::lfsr_constants<63>()[r], 127);
      for (const State128 onebyte :
           {State128{0, v << (8 * b)}, State128{v << (8 * b), 0}}) {
        check(onebyte, random_key(), r);
        check(oracle::xor128(onebyte, constant), RoundKey128{}, r);
      }
    }
  }
  for (unsigned r = 0; r < Gift128::kRounds; ++r) {
    for (int i = 0; i < 500; ++i) {
      check(State128{rng.block64(), rng.block64()}, random_key(), r);
    }
  }
}

TEST(Gift128, RoundTripRandomKeys) {
  Xoshiro256 rng{0x128128};
  for (int i = 0; i < 100; ++i) {
    const Key128 key = rng.key128();
    const State128 pt{rng.block64(), rng.block64()};
    EXPECT_EQ(Gift128::decrypt(Gift128::encrypt(pt, key), key), pt);
  }
}

TEST(Gift128, RoundStatesChain) {
  Xoshiro256 rng{41};
  const Key128 key = rng.key128();
  const State128 pt{rng.block64(), rng.block64()};
  const auto states = Gift128::round_states(pt, key);
  ASSERT_EQ(states.size(), Gift128::kRounds + 1);
  EXPECT_EQ(states.front(), pt);
  EXPECT_EQ(states.back(), Gift128::encrypt(pt, key));
  for (unsigned r = 0; r <= Gift128::kRounds; ++r) {
    EXPECT_EQ(states[r], Gift128::encrypt_rounds(pt, key, r));
  }
}

TEST(Gift128, NibbleAccessorCoversBothHalves) {
  State128 s{0xFEDCBA9876543210ull, 0xFEDCBA9876543210ull};
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(s.nibble(i), i);
    EXPECT_EQ(s.nibble(16 + i), i);
  }
}

TEST(Gift128, XorBitTogglesSingleBit) {
  State128 s{};
  s.xor_bit(0, 1);
  EXPECT_EQ(s.lo, 1u);
  s.xor_bit(127, 1);
  EXPECT_EQ(s.hi, std::uint64_t{1} << 63);
  s.xor_bit(127, 1);
  EXPECT_EQ(s.hi, 0u);
}

TEST(Gift128, InverseRoundFunctionInvertsRoundFunction) {
  Xoshiro256 rng{42};
  for (int i = 0; i < 50; ++i) {
    const State128 s{rng.block64(), rng.block64()};
    const RoundKey128 rk{static_cast<std::uint32_t>(rng.next()),
                         static_cast<std::uint32_t>(rng.next())};
    const unsigned round = static_cast<unsigned>(rng.uniform(Gift128::kRounds));
    EXPECT_EQ(Gift128::inverse_round_function(
                  Gift128::round_function(s, rk, round), rk, round),
              s);
  }
}

TEST(Gift128, AvalancheOnPlaintext) {
  Xoshiro256 rng{43};
  const Key128 key = rng.key128();
  double total = 0;
  constexpr int kTrials = 100;
  for (int i = 0; i < kTrials; ++i) {
    State128 pt{rng.block64(), rng.block64()};
    const State128 c1 = Gift128::encrypt(pt, key);
    const unsigned pos = static_cast<unsigned>(rng.uniform(128));
    pt.xor_bit(pos, 1);
    const State128 c2 = Gift128::encrypt(pt, key);
    total += popcount(c1.hi ^ c2.hi) + popcount(c1.lo ^ c2.lo);
  }
  const double mean = total / kTrials;
  EXPECT_GT(mean, 56.0);
  EXPECT_LT(mean, 72.0);
}

}  // namespace
}  // namespace grinch::gift
