// Deterministic pseudo-random number generation for experiments.
//
// Every stochastic component of the reproduction (plaintext crafting,
// replacement-policy randomness, scheduler jitter, key sampling) draws
// from an explicitly seeded Xoshiro256** instance, so every table and
// figure in EXPERIMENTS.md can be regenerated bit-for-bit.
#pragma once

#include <bit>
#include <cstdint>

#include "common/key128.h"

namespace grinch {

/// SplitMix64 — used to expand a single u64 seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** by Blackman & Vigna — fast, high-quality, 256-bit state.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 state bits from a single u64 via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  std::uint64_t operator()() noexcept { return next(); }

  /// Inline: crafters and the fault channel draw per observation.
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Unbiased uniform draw in [0, bound). Precondition: bound > 0.
  /// A power-of-two bound divides 2^64, so rejection never triggers and
  /// the first draw's low bits are the result: one next() either way,
  /// without the two divisions.
  std::uint64_t uniform(std::uint64_t bound) noexcept {
    if ((bound & (bound - 1)) == 0) return next() & (bound - 1);
    return uniform_rejection(bound);
  }

  /// Uniform 4-bit segment value (plaintext nibble randomisation).
  unsigned nibble() noexcept { return static_cast<unsigned>(next() & 0xF); }

  /// Single fair bit.
  unsigned coin() noexcept { return static_cast<unsigned>(next() & 1); }

  /// Uniform 64-bit plaintext block.
  std::uint64_t block64() noexcept { return next(); }

  /// Uniform 128-bit key.
  Key128 key128() noexcept { return Key128{next(), next()}; }

  /// Splits off an independent generator (for per-trial streams).
  Xoshiro256 split() noexcept { return Xoshiro256{next()}; }

  /// Same state, so the same stream from here on.
  friend bool operator==(const Xoshiro256&, const Xoshiro256&) = default;

 private:
  std::uint64_t uniform_rejection(std::uint64_t bound) noexcept;

  std::uint64_t s_[4];
};

}  // namespace grinch
