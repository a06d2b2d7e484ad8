#include "common/rng.h"

namespace grinch {

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm{seed};
  for (auto& s : s_) s = sm.next();
  // All-zero state is the one forbidden state; SplitMix64 cannot produce
  // four consecutive zeros, but guard anyway for belt and braces.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ull;
}

std::uint64_t Xoshiro256::uniform_rejection(std::uint64_t bound) noexcept {
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

}  // namespace grinch
