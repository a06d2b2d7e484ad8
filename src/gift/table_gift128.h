// Table-based (leaky) GIFT-128 implementation.
//
// GIFT-128 is the variant inside GIFT-COFB and most GIFT-based NIST LWC
// candidates, so its table implementation leaks through the cache exactly
// like GIFT-64's: one 16-entry S-Box lookup per 4-bit segment per round —
// just 32 segments instead of 16, and round keys landing on bits 4i+1 /
// 4i+2.  This class mirrors TableGift64 (same TableLayout, same
// TraceSink) so probers and cache machinery are reused unchanged.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/key128.h"
#include "gift/constants.h"
#include "gift/gift128.h"
#include "gift/table_gift.h"

namespace grinch::gift {

class TableGift128 {
 public:
  explicit TableGift128(const TableLayout& layout = TableLayout{});

  [[nodiscard]] const TableLayout& layout() const noexcept { return layout_; }

  [[nodiscard]] State128 encrypt(State128 plaintext, const Key128& key,
                                 TraceSink* sink = nullptr) const;

  [[nodiscard]] State128 encrypt_rounds(State128 plaintext, const Key128& key,
                                        unsigned rounds,
                                        TraceSink* sink = nullptr) const;

  /// Precomputed round keys for repeated encryptions under one key (the
  /// observation hot path derives them once per victim).
  using Schedule = std::vector<RoundKey128>;
  [[nodiscard]] Schedule make_schedule(const Key128& key,
                                       unsigned rounds = Gift128::kRounds)
      const;

  /// encrypt_rounds with a precomputed schedule (schedule.size() >=
  /// rounds): the partial-round fast path — the emitted trace is the
  /// exact prefix of the full-round trace, and the returned state matches
  /// the full encryption once rounds == Gift128::kRounds.
  [[nodiscard]] State128 encrypt_with_schedule(
      State128 plaintext, std::span<const RoundKey128> schedule,
      unsigned rounds, TraceSink* sink = nullptr) const;

  /// Fully static sink (any class with the TraceSink callback shape, no
  /// inheritance required): round loop and callbacks inline into one
  /// function — the wide path's zero-dispatch entry point.
  /// TraceSink* callers keep resolving to the non-template overload.
  template <typename Sink>
  [[nodiscard]] State128 encrypt_with_schedule(
      State128 plaintext, std::span<const RoundKey128> schedule,
      unsigned rounds, Sink* sink) const {
    return encrypt_rounds_from(plaintext, schedule, 0, rounds, sink);
  }

  /// Rounds [first, rounds) of encrypt_with_schedule, from `state`, the
  /// state after its first `first` rounds (see TableGift64).
  template <typename Sink>
  [[nodiscard]] State128 encrypt_rounds_from(
      State128 state, std::span<const RoundKey128> schedule, unsigned first,
      unsigned rounds, Sink* sink) const {
    assert(schedule.size() >= rounds);
    return encrypt_with_keys(state, schedule.data(), first, rounds, sink);
  }

  /// 32 S-Box + 32 PermBits lookups per round.
  [[nodiscard]] static constexpr unsigned accesses_per_round() noexcept {
    return 64;
  }

 private:
  /// The round loop, generic over the sink's static type.  Header-defined
  /// so sink callbacks devirtualize/inline per instantiation.
  template <typename Sink>
  State128 encrypt_with_keys(State128 state, const RoundKey128* rks,
                             unsigned first, unsigned rounds,
                             Sink* sink) const {
    if constexpr (std::is_same_v<Sink, NullSink>) {
      // No one observes these accesses: the reference round computes the
      // same state from its fused table.
      for (unsigned r = first; r < rounds; ++r) {
        state = Gift128::round_function(state, rks[r], r);
      }
      return state;
    }
    for (unsigned r = first; r < rounds; ++r) {
      if (sink) sink->on_round_begin(r);

      // SubCells via the shared 16-entry table; the lookup index leaks.
      State128 substituted{};
      for (unsigned s = 0; s < Gift128::kSegments; ++s) {
        const unsigned v = state.nibble(s);
        if (sink) {
          sink->on_access(TableAccess{sbox_addr_[v],
                                      TableAccess::Kind::kSBox,
                                      static_cast<std::uint8_t>(r),
                                      static_cast<std::uint8_t>(s),
                                      static_cast<std::uint8_t>(v)});
        }
        const std::uint64_t y = sbox_table_[v];
        if (s < 16)
          substituted.lo |= y << (4 * s);
        else
          substituted.hi |= y << (4 * (s - 16));
      }

      // PermBits via precomputed per-segment masks.
      State128 permuted{};
      for (unsigned s = 0; s < Gift128::kSegments; ++s) {
        const unsigned v = substituted.nibble(s);
        if (sink) {
          sink->on_access(TableAccess{layout_.perm_row_addr(s, v),
                                      TableAccess::Kind::kPerm,
                                      static_cast<std::uint8_t>(r),
                                      static_cast<std::uint8_t>(s),
                                      static_cast<std::uint8_t>(v)});
        }
        permuted.hi |= perm_hi_[s][v];
        permuted.lo |= perm_lo_[s][v];
      }

      state = Gift128::add_round_key(permuted, rks[r]);
      // Constant addition (same shape as the spec implementation).
      state.hi ^= std::uint64_t{1} << 63;
      const std::uint8_t c = round_constant(r);
      for (unsigned t = 0; t < 6; ++t) {
        state.lo ^= static_cast<std::uint64_t>((c >> t) & 1u) << (4 * t + 3);
      }

      if (sink) sink->on_round_end(r);
    }
    return state;
  }

  TableLayout layout_;
  std::uint8_t sbox_table_[16];
  std::uint64_t sbox_addr_[16];  // = layout_.sbox_row_addr(v), hoisting its
                                 // division off the round loop
  /// PERM[s][v] = P128 applied to v << 4s, as (hi, lo) contributions.
  std::uint64_t perm_hi_[32][16];
  std::uint64_t perm_lo_[32][16];
};

}  // namespace grinch::gift
