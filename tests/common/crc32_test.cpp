// CRC-32 (IEEE reflected, zlib-compatible) — the integrity check under
// campaign checkpoints and flushed-result prefixes.
#include "common/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace grinch {
namespace {

/// The byte-at-a-time table loop Crc32::update replaced: the oracle its
/// slice-by-8 form must equal.
std::uint32_t bytewise_update(std::uint32_t crc, const unsigned char* bytes,
                              std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

TEST(Crc32, KnownVectors) {
  // The classic zlib check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, SliceBy8MatchesBytewiseLoop) {
  // Every length 0..100 at every start offset into the buffer, so each
  // alignment meets every split between the 8-byte body and the tail;
  // from kInit and from a mid-stream running value.
  std::vector<unsigned char> buf(100 + 16);
  std::uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (const std::uint32_t start : {Crc32::kInit, 0x1234ABCDu}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 100; ++len) {
        EXPECT_EQ(Crc32::update(start, buf.data() + offset, len),
                  bytewise_update(start, buf.data() + offset, len))
            << "offset " << offset << " length " << len;
      }
    }
  }
  const std::string check = "123456789";
  EXPECT_EQ(Crc32::finalize(bytewise_update(
                Crc32::kInit,
                reinterpret_cast<const unsigned char*>(check.data()),
                check.size())),
            0xCBF43926u);
  EXPECT_EQ(crc32(check), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "incremental update must equal one-shot";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t state = Crc32::kInit;
    state = Crc32::update(state, data.data(), split);
    state = Crc32::update(state, data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32::finalize(state), crc32(data)) << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string data = "checkpoint payload bytes";
  const std::uint32_t good = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(data[i] ^ 1);
    EXPECT_NE(crc32(data), good) << "flip at " << i;
    data[i] = static_cast<char>(data[i] ^ 1);
  }
}

}  // namespace
}  // namespace grinch
