// Hex encoding/decoding used by tests, examples and experiment logs, and
// the whole-number parser of the command-line tools.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace grinch {

/// Encodes `v` as `digits` lowercase hex characters (most significant first).
std::string to_hex_u64(std::uint64_t v, unsigned digits = 16);

/// Parses up to 16 hex digits into a u64. Returns nullopt on bad input.
std::optional<std::uint64_t> parse_hex_u64(const std::string& s);

/// Parses a whole number in C notation (decimal, 0x hex or 0-prefixed
/// octal) with nothing after it. Returns nullopt on bad input or overflow.
std::optional<std::uint64_t> parse_whole_u64(const std::string& s);

/// Encodes a byte vector, index 0 printed first.
std::string to_hex_bytes(const std::vector<std::uint8_t>& bytes);

/// Decodes a hex string (even length) into bytes. Returns nullopt on error.
std::optional<std::vector<std::uint8_t>> parse_hex_bytes(const std::string& s);

}  // namespace grinch
