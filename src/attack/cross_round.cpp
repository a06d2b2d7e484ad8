#include "attack/cross_round.h"

#include <cassert>

#include "gift/constants.h"
#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::attack {

unsigned constant_nibble_contribution(unsigned round_index, unsigned segment) {
  const std::uint8_t c = gift::round_constant(round_index);
  unsigned contribution = 0;
  // c_t -> state bit 4t+3 for t = 0..5; the fixed '1' -> bit 63 (seg 15).
  if (segment < 6 && ((c >> segment) & 1u)) contribution = 0x8;
  if (segment == 15) contribution ^= 0x8;
  return contribution;
}

CrossRoundSolver::CrossRoundSolver() {
  const gift::BitPermutation& perm = gift::gift64_permutation();
  for (unsigned t = 0; t < 16; ++t) {
    for (unsigned j = 0; j < 4; ++j) {
      const unsigned p = perm.inverse(4 * t + j);
      sources_[t].seg[j] = p / 4;
      sources_[t].bit[j] = p % 4;
    }
  }
}

unsigned CrossRoundSolver::next_round_pre_key_nibble(
    const CrossRoundObservation& obs, unsigned target_segment,
    const std::array<unsigned, 4>& source_candidates) const {
  const gift::SBox& sbox = gift::gift_sbox();
  const Sources& src = sources_[target_segment];
  unsigned m = 0;
  for (unsigned j = 0; j < 4; ++j) {
    const unsigned s = src.seg[j];
    const unsigned y =
        sbox.apply(obs.pre_key_nibbles[s] ^ source_candidates[j]);
    m |= ((y >> src.bit[j]) & 1u) << j;
  }
  m ^= constant_nibble_contribution(obs.next_round_index, target_segment);
  return m;
}

unsigned CrossRoundSolver::propagate(const CrossRoundObservation& obs,
                                     std::array<CandidateSet, 16>& a,
                                     std::array<CandidateSet, 16>& b) const {
  assert(obs.present.size() == 16);
  unsigned pruned_total = 0;

  for (unsigned t = 0; t < 16; ++t) {
    const Sources& src = sources_[t];
    // Supported values found during enumeration.
    std::array<std::uint8_t, 4> a_support{};
    std::uint8_t b_support = 0;

    std::array<unsigned, 4> assign{};
    // Enumerate the product of the four source candidate sets.
    for (unsigned c0 = 0; c0 < 4; ++c0) {
      if (!a[src.seg[0]].contains(c0)) continue;
      assign[0] = c0;
      for (unsigned c1 = 0; c1 < 4; ++c1) {
        if (!a[src.seg[1]].contains(c1)) continue;
        assign[1] = c1;
        for (unsigned c2 = 0; c2 < 4; ++c2) {
          if (!a[src.seg[2]].contains(c2)) continue;
          assign[2] = c2;
          for (unsigned c3 = 0; c3 < 4; ++c3) {
            if (!a[src.seg[3]].contains(c3)) continue;
            assign[3] = c3;
            const unsigned m = next_round_pre_key_nibble(obs, t, assign);
            for (unsigned cp = 0; cp < 4; ++cp) {
              if (!b[t].contains(cp)) continue;
              if (!obs.present[(m ^ cp) & 0xF]) continue;
              // Satisfying assignment: mark support for every participant.
              for (unsigned j = 0; j < 4; ++j)
                a_support[j] |= static_cast<std::uint8_t>(1u << assign[j]);
              b_support |= static_cast<std::uint8_t>(1u << cp);
            }
          }
        }
      }
    }

    // A constraint with no satisfying assignment at all is noise — the
    // truth is always satisfiable on a clean probe — so skip it.
    if (b_support == 0) continue;

    for (unsigned j = 0; j < 4; ++j) {
      CandidateSet& var = a[src.seg[j]];
      const std::uint8_t pruned_mask =
          static_cast<std::uint8_t>(var.mask() & ~a_support[j]);
      if (pruned_mask == var.mask()) continue;  // would empty: noise guard
      for (unsigned c = 0; c < 4; ++c) {
        if (var.contains(c) && !((a_support[j] >> c) & 1u)) {
          var.remove(c);
          ++pruned_total;
        }
      }
    }
    {
      CandidateSet& var = b[t];
      for (unsigned c = 0; c < 4; ++c) {
        if (var.contains(c) && !((b_support >> c) & 1u)) {
          var.remove(c);
          ++pruned_total;
        }
      }
    }
  }
  return pruned_total;
}

unsigned CrossRoundSolver::propagate_to_fixpoint(
    const CrossRoundObservation& obs, std::array<CandidateSet, 16>& a,
    std::array<CandidateSet, 16>& b) const {
  unsigned total = 0;
  for (;;) {
    const unsigned pruned = propagate(obs, a, b);
    total += pruned;
    if (pruned == 0) return total;
  }
}

}  // namespace grinch::attack
