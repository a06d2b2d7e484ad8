#include "common/hex.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/key128.h"

namespace grinch {
namespace {

constexpr char kDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string to_hex_u64(std::uint64_t v, unsigned digits) {
  std::string out(digits, '0');
  for (unsigned i = 0; i < digits; ++i) {
    out[digits - 1 - i] = kDigits[(v >> (4 * i)) & 0xF];
  }
  return out;
}

std::optional<std::uint64_t> parse_hex_u64(const std::string& s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    const int d = hex_value(c);
    if (d < 0) return std::nullopt;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

std::optional<std::uint64_t> parse_whole_u64(const std::string& s) {
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])) == 0) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 0);
  if (errno == ERANGE || *end != '\0') return std::nullopt;
  return v;
}

std::string to_hex_bytes(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> parse_hex_bytes(const std::string& s) {
  if (s.size() % 2 != 0) return std::nullopt;
  std::vector<std::uint8_t> out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const int h = hex_value(s[i]);
    const int l = hex_value(s[i + 1]);
    if (h < 0 || l < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>((h << 4) | l));
  }
  return out;
}

std::string Key128::to_hex() const {
  return to_hex_u64(hi, 16) + to_hex_u64(lo, 16);
}

bool Key128::from_hex(const std::string& hex, Key128& out) {
  if (hex.size() != 32) return false;
  const auto hi = parse_hex_u64(hex.substr(0, 16));
  const auto lo = parse_hex_u64(hex.substr(16, 16));
  if (!hi || !lo) return false;
  out = Key128{*hi, *lo};
  return true;
}

}  // namespace grinch
