#include "attack/time_driven.h"

#include "common/bits.h"
#include "soc/victim.h"
#include "target/gift64_recovery.h"

namespace grinch::attack {

VictimTimingOracle::VictimTimingOracle(
    const Key128& victim_key, const cachesim::CacheConfig& cache_config)
    : key_(victim_key), cache_(cache_config), cipher_(layout_) {}

std::uint64_t VictimTimingOracle::time_encryption(std::uint64_t plaintext) {
  // Between two victim invocations other system activity evicts the
  // S-Box lines (they are tiny and cold); model that by invalidating them
  // at encryption start.  Everything else stays warm.
  for (unsigned row = 0; row < layout_.sbox_rows(); ++row) {
    cache_.flush_line(layout_.sbox_base + row * layout_.sbox_row_bytes);
  }
  soc::VictimProcess victim{cipher_, cache_, soc::VictimCostModel{}};
  victim.begin_encryption(plaintext, key_);
  victim.finish();
  return victim.now();
}

TimeDrivenResult time_driven_attack(TimingOracle& oracle,
                                    const TimeDrivenConfig& config) {
  TimeDrivenResult result;
  Xoshiro256 rng{config.seed};

  // Accumulated timing sums per (segment, candidate, predicted index
  // value, predictor outcome).  Stratifying by the predicted index value
  // x removes value-level confounds exactly: within a stratum, both the
  // present and absent branches concern the *same* value, so its global
  // timing footprint (later-round reuse etc.) cancels; averaging strata
  // uniformly makes the residual bias a candidate-independent constant.
  struct Acc {
    double sum[2] = {0, 0};
    std::uint64_t count[2] = {0, 0};
  };
  // acc[segment][candidate][value]
  std::array<std::array<std::array<Acc, 16>, 4>, 16> acc{};

  for (std::uint64_t i = 0; i < config.encryptions; ++i) {
    const std::uint64_t pt = rng.block64();
    double t = static_cast<double>(oracle.time_encryption(pt));
    ++result.encryptions;

    // Round-1 S-Box indices are exactly the plaintext nibbles.
    bool seen[16] = {};
    unsigned distinct = 0;
    for (unsigned j = 0; j < 16; ++j) {
      distinct += !seen[nibble(pt, j)];
      seen[nibble(pt, j)] = true;
    }
    // Subtract the exactly-known round-1 miss cost (variance reduction).
    t -= config.round1_miss_cycles * distinct;

    const auto n = target::Gift64Recovery::pre_key_nibbles(pt, {}, 0);
    for (unsigned s = 0; s < 16; ++s) {
      for (unsigned c = 0; c < 4; ++c) {
        const unsigned predicted = (n[s] ^ c) & 0xF;
        const unsigned hit_predicted = seen[predicted] ? 1 : 0;
        acc[s][c][predicted].sum[hit_predicted] += t;
        ++acc[s][c][predicted].count[hit_predicted];
      }
    }
  }

  // Score: expected slowdown when the predicted access misses.  The true
  // candidate's predictor tracks the real access, so its gap is largest.
  bool all_clear = true;
  for (unsigned s = 0; s < 16; ++s) {
    double best_score = -1e18, runner_score = -1e18;
    unsigned best = 0;
    for (unsigned c = 0; c < 4; ++c) {
      double gap = 0;
      unsigned valid_strata = 0;
      for (unsigned x = 0; x < 16; ++x) {
        const Acc& a = acc[s][c][x];
        if (a.count[0] == 0 || a.count[1] == 0) continue;
        gap += a.sum[0] / static_cast<double>(a.count[0]) -
               a.sum[1] / static_cast<double>(a.count[1]);
        ++valid_strata;
      }
      if (valid_strata == 0) {
        all_clear = false;
        continue;
      }
      gap /= valid_strata;
      if (gap > best_score) {
        runner_score = best_score;
        best_score = gap;
        best = c;
      } else if (gap > runner_score) {
        runner_score = gap;
      }
    }
    result.margins[s] = best_score - runner_score;
    result.round_key.u |= static_cast<std::uint16_t>(((best >> 1) & 1u) << s);
    result.round_key.v |= static_cast<std::uint16_t>((best & 1u) << s);
    if (result.margins[s] <= 0) all_clear = false;
  }
  result.success = all_clear;
  return result;
}

}  // namespace grinch::attack
