// GIFT round constants.
//
// A 6-bit affine LFSR (c5..c0), updated *before* each round's constant is
// used:  (c5..c0) <- (c4, c3, c2, c1, c0, c5 XOR c4 XOR 1), starting from
// all-zero.  The constant is XORed into state bits 23,19,15,11,7,3 (c5..c0
// respectively) and a fixed '1' into the state MSB (bit 63 / bit 127).
// Starting from zero the LFSR cycles through 63 states (0x3F is a fixed
// point it never reaches), so round_constant() reads one period that the
// LFSR generates at compile time.
#pragma once

#include <array>
#include <cstdint>

namespace grinch::gift {

/// Stateful round-constant generator, mirrors the spec's LFSR exactly.
class RoundConstantLfsr {
 public:
  /// Advances the LFSR and returns the 6-bit constant for the next round.
  constexpr std::uint8_t next() noexcept {
    const unsigned c5 = (state_ >> 5) & 1u;
    const unsigned c4 = (state_ >> 4) & 1u;
    state_ = static_cast<std::uint8_t>(((state_ << 1) | (c5 ^ c4 ^ 1u)) & 0x3F);
    return state_;
  }

  void reset() noexcept { state_ = 0; }

 private:
  std::uint8_t state_ = 0;
};

namespace detail {

inline constexpr unsigned kRoundConstantPeriod = 63;

/// One LFSR period: entry r is the constant of round r (mod 63).
inline constexpr auto kRoundConstants = [] {
  std::array<std::uint8_t, kRoundConstantPeriod> table{};
  RoundConstantLfsr lfsr;
  for (auto& c : table) c = lfsr.next();
  return table;
}();
static_assert(kRoundConstants[kRoundConstantPeriod - 1] == 0,
              "the LFSR must be back at its all-zero start after one period");

}  // namespace detail

/// Stateless access: the 6-bit constant of (0-based) round `round`.
[[nodiscard]] constexpr std::uint8_t round_constant(unsigned round) noexcept {
  return detail::kRoundConstants[round % detail::kRoundConstantPeriod];
}

/// XORs constant `c` and the fixed MSB '1' into a 64-bit GIFT state.
[[nodiscard]] constexpr std::uint64_t add_constant64(std::uint64_t state,
                                                     std::uint8_t c) noexcept {
  state ^= std::uint64_t{1} << 63;
  state ^= static_cast<std::uint64_t>(c & 1u) << 3;          // c0 -> b3
  state ^= static_cast<std::uint64_t>((c >> 1) & 1u) << 7;   // c1 -> b7
  state ^= static_cast<std::uint64_t>((c >> 2) & 1u) << 11;  // c2 -> b11
  state ^= static_cast<std::uint64_t>((c >> 3) & 1u) << 15;  // c3 -> b15
  state ^= static_cast<std::uint64_t>((c >> 4) & 1u) << 19;  // c4 -> b19
  state ^= static_cast<std::uint64_t>((c >> 5) & 1u) << 23;  // c5 -> b23
  return state;
}

namespace detail {

/// add_constant64(0, c) for each constant of one LFSR period.
inline constexpr auto kRoundConstantWords = [] {
  std::array<std::uint64_t, kRoundConstantPeriod> words{};
  for (unsigned r = 0; r < kRoundConstantPeriod; ++r) {
    words[r] = add_constant64(0, kRoundConstants[r]);
  }
  return words;
}();

}  // namespace detail

/// The whole constant addition of (0-based) round `round` as one word:
/// GIFT-64 XORs it into its state; GIFT-128 XORs its bits below the MSB
/// into its low half and the MSB into its high half.
[[nodiscard]] constexpr std::uint64_t round_constant_word(
    unsigned round) noexcept {
  return detail::kRoundConstantWords[round % detail::kRoundConstantPeriod];
}

}  // namespace grinch::gift
