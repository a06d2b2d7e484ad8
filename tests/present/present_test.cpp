// PRESENT known-answer tests (Bogdanov et al., CHES 2007, Appendix) and
// round-trip properties.
#include "present/present.h"

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/hex.h"
#include "common/rng.h"
#include "oracle/layer_oracle.h"

namespace grinch::present {
namespace {

Key128 key80(const std::string& hex20) {
  // 20 hex digits = 80 bits, stored in the low 80 bits of Key128.
  EXPECT_EQ(hex20.size(), 20u);
  const std::uint64_t hi = parse_hex_u64(hex20.substr(0, 4)).value();
  const std::uint64_t lo = parse_hex_u64(hex20.substr(4, 16)).value();
  return Key128{hi, lo};
}

struct Kat80 {
  const char* key;
  std::uint64_t plaintext;
  std::uint64_t ciphertext;
};

// Names each case by key and plaintext. Without this, gtest prints the
// struct's pointer bytes, so the test names change from run to run.
void PrintTo(const Kat80& kat, std::ostream* os) {
  *os << kat.key << '_' << to_hex_u64(kat.plaintext);
}

constexpr const char* kZeroKey = "00000000000000000000";
constexpr const char* kOnesKey = "ffffffffffffffffffff";

const Kat80 kKats80[] = {
    {kZeroKey, 0x0000000000000000ull, 0x5579C1387B228445ull},
    {kOnesKey, 0x0000000000000000ull, 0xE72C46C0F5945049ull},
    {kZeroKey, 0xFFFFFFFFFFFFFFFFull, 0xA112FFC72F68417Bull},
    {kOnesKey, 0xFFFFFFFFFFFFFFFFull, 0x3333DCD3213210D2ull},
};

class Present80Kat : public ::testing::TestWithParam<Kat80> {};

TEST_P(Present80Kat, EncryptMatchesPublishedVector) {
  const Kat80& kat = GetParam();
  EXPECT_EQ(Present80::encrypt(kat.plaintext, key80(kat.key)), kat.ciphertext);
}

TEST_P(Present80Kat, DecryptMatchesPublishedVector) {
  const Kat80& kat = GetParam();
  EXPECT_EQ(Present80::decrypt(kat.ciphertext, key80(kat.key)), kat.plaintext);
}

TEST_P(Present80Kat, OracleCompositionMatchesPublishedVector) {
  const Kat80& kat = GetParam();
  const auto rks = oracle::present80_round_keys(key80(kat.key));
  EXPECT_EQ(oracle::present_encrypt(kat.plaintext, rks), kat.ciphertext);
  EXPECT_EQ(oracle::present_decrypt(kat.ciphertext, rks), kat.plaintext);
}

INSTANTIATE_TEST_SUITE_P(Ches2007Vectors, Present80Kat,
                         ::testing::ValuesIn(kKats80));

TEST(Present80, RoundKeysMatchBitRegisterSchedule) {
  Xoshiro256 rng{0x5C80};
  for (int i = 0; i < 10000; ++i) {
    const Key128 key = rng.key128();
    ASSERT_EQ(Present80::round_keys(key), oracle::present80_round_keys(key))
        << "key " << key.to_hex();
  }
}

TEST(Present80, EncryptDecryptMatchOracleComposition) {
  // Table-driven sBoxLayer/pLayer against the per-nibble and per-bit
  // oracle layers under the bit-register key schedule.
  Xoshiro256 rng{0xC80};
  for (int i = 0; i < 10000; ++i) {
    const Key128 key = rng.key128();
    const std::uint64_t block = rng.block64();
    const auto rks = oracle::present80_round_keys(key);
    ASSERT_EQ(Present80::encrypt(block, key), oracle::present_encrypt(block, rks))
        << "key " << key.to_hex() << " block " << to_hex_u64(block);
    ASSERT_EQ(Present80::decrypt(block, key), oracle::present_decrypt(block, rks))
        << "key " << key.to_hex() << " block " << to_hex_u64(block);
  }
}

TEST(Present128, EncryptDecryptMatchOracleComposition) {
  Xoshiro256 rng{0xC128};
  for (int i = 0; i < 10000; ++i) {
    const Key128 key = rng.key128();
    const std::uint64_t block = rng.block64();
    const auto rks = oracle::present128_round_keys(key);
    ASSERT_EQ(Present128::encrypt(block, key),
              oracle::present_encrypt(block, rks))
        << "key " << key.to_hex() << " block " << to_hex_u64(block);
    ASSERT_EQ(Present128::decrypt(block, key),
              oracle::present_decrypt(block, rks))
        << "key " << key.to_hex() << " block " << to_hex_u64(block);
  }
}

TEST(Present80, RoundTripRandomKeys) {
  Xoshiro256 rng{0x80};
  for (int i = 0; i < 100; ++i) {
    // Mask to 80 key bits.
    Key128 key = rng.key128();
    key.hi &= 0xFFFF;
    const std::uint64_t pt = rng.block64();
    EXPECT_EQ(Present80::decrypt(Present80::encrypt(pt, key), key), pt);
  }
}

TEST(Present128, RoundTripRandomKeys) {
  Xoshiro256 rng{0x128};
  for (int i = 0; i < 100; ++i) {
    const Key128 key = rng.key128();
    const std::uint64_t pt = rng.block64();
    EXPECT_EQ(Present128::decrypt(Present128::encrypt(pt, key), key), pt);
  }
}

TEST(Present128, KeyBitsBeyond80Matter) {
  Xoshiro256 rng{0x129};
  const std::uint64_t pt = rng.block64();
  const Key128 k1{0x0123456789ABCDEFull, 0x0ull};
  const Key128 k2{0xFEDCBA9876543210ull, 0x0ull};
  EXPECT_NE(Present128::encrypt(pt, k1), Present128::encrypt(pt, k2));
}

TEST(Present80, AvalancheOnPlaintext) {
  Xoshiro256 rng{0x130};
  Key128 key = rng.key128();
  key.hi &= 0xFFFF;
  double total = 0;
  constexpr int kTrials = 100;
  for (int i = 0; i < kTrials; ++i) {
    const std::uint64_t pt = rng.block64();
    const unsigned pos = static_cast<unsigned>(rng.uniform(64));
    total += popcount(Present80::encrypt(pt, key) ^
                      Present80::encrypt(flip_bit(pt, pos), key));
  }
  const double mean = total / kTrials;
  EXPECT_GT(mean, 28.0);
  EXPECT_LT(mean, 36.0);
}

TEST(Present80, DifferentKeysDifferentCiphertexts) {
  const std::uint64_t pt = 0x1234567890ABCDEFull;
  EXPECT_NE(Present80::encrypt(pt, key80(kZeroKey)),
            Present80::encrypt(pt, key80(kOnesKey)));
}

}  // namespace
}  // namespace grinch::present
