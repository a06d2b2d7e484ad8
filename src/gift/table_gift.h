// Table-based (leaky) GIFT-64 and GIFT-128.
//
// The GRINCH paper attacks the public GIFT software implementation whose
// SubCells and PermBits layers are realised as look-up tables.  This class
// reproduces that implementation style and *instruments* it: every table
// access is reported to a sink with its memory address, round and
// segment, so the SoC simulation can replay the access stream against the
// cache model.  The same instrumentation points feed the static/dynamic
// leak analyzer in src/analysis/ (docs/LEAKCHECK.md).
//
// One template serves both widths: TableGift64 = TableGift<Gift64> (16
// segments) and TableGift128 = TableGift<Gift128> (32 segments, round keys
// on bits 4i+1 / 4i+2).  The round loop reads the width facts of the
// reference cipher (state and round-key types, round-key extraction,
// AddRoundKey, the round constant), so one S-Box lookup per segment per
// round leaks through the cache the same way at both widths.
//
// Memory layout (configurable through TableLayout):
//   * S-Box table    — 16 4-bit entries.  In the paper's default platform
//     a cache line holds one 8-bit word, i.e. one entry per line.  The
//     countermeasure of §IV-C packs two entries per row (8 rows x 8 bit).
//   * PermBits table — per (segment, value) precomputed masks:
//     PERM[s][v] = PermBits(v << 4s).  One 8-byte row per entry.
//
// Every entry point takes its sink as a template parameter: a TraceSink*
// dispatches virtually (a null one runs the instrumented loop and reports
// nothing), a VectorTraceSink (final) or any class with the TraceSink
// callback shape binds statically, and NullSink, the default, runs the
// reference cipher's fused round instead of the instrumented loop.  The
// VectorTraceSink loop of each width is compiled once, in table_gift.cpp
// beside the sink's callbacks.
//
// Functional correctness is cross-checked against the spec
// implementations in tests/gift/table_gift_test.cpp and
// table_gift128_test.cpp; tests/integration/table_victim_digest_test.cpp
// pins the access streams.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/key128.h"
#include "gift/gift128.h"
#include "gift/gift64.h"
#include "gift/key_schedule.h"
#include "target/table_layout.h"

namespace grinch::gift {

/// Compatibility alias: TableLayout moved to the cipher-neutral target
/// layer (src/target/table_layout.h) — PRESENT and future table ciphers
/// describe their placement with the same type without reaching into the
/// gift namespace.
using TableLayout = target::TableLayout;

/// One instrumented table access.
struct TableAccess {
  enum class Kind : std::uint8_t { kSBox, kPerm };

  std::uint64_t addr = 0;   ///< byte address of the accessed table row
  Kind kind = Kind::kSBox;
  std::uint8_t round = 0;   ///< 0-based round index
  std::uint8_t segment = 0; ///< 4-bit segment being processed
  std::uint8_t index = 0;   ///< table row index (S-Box: the leaking value)
};

/// Receives the access stream during an instrumented encryption.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_round_begin(unsigned round) = 0;
  virtual void on_access(const TableAccess& access) = 0;
  virtual void on_round_end(unsigned round) = 0;
};

/// A sink that receives nothing: the entry points' default.  The GIFT
/// victims run the reference round for it (the wide path's rounds before
/// its probe window, lazy ciphertext completion).
struct NullSink {
  void on_round_begin(unsigned /*round*/) noexcept {}
  void on_access(const TableAccess& /*access*/) noexcept {}
  void on_round_end(unsigned /*round*/) noexcept {}
};

/// TraceSink that collects everything into vectors (tests, offline replay).
/// Final, so a VectorTraceSink* argument binds its ~900 per-encryption
/// callbacks statically; clear() keeps capacity, so a reused sink stops
/// allocating after the first encryption.
class VectorTraceSink final : public TraceSink {
 public:
  void on_round_begin(unsigned round) override;
  void on_access(const TableAccess& access) override;
  void on_round_end(unsigned round) override;

  [[nodiscard]] const std::vector<TableAccess>& accesses() const noexcept {
    return accesses_;
  }
  /// accesses() index where (0-based) round r starts.
  [[nodiscard]] std::size_t round_begin_index(unsigned round) const {
    return round_begin_.at(round);
  }
  [[nodiscard]] unsigned rounds_seen() const noexcept {
    return static_cast<unsigned>(round_begin_.size());
  }
  void clear();

 private:
  std::vector<TableAccess> accesses_;
  std::vector<std::size_t> round_begin_;
};

namespace detail {

/// 4-bit segment `s` of a GIFT state (segment 0 = bits 3..0).
[[nodiscard]] constexpr unsigned segment(std::uint64_t state,
                                         unsigned s) noexcept {
  return nibble(state, s);
}
[[nodiscard]] constexpr unsigned segment(const State128& state,
                                         unsigned s) noexcept {
  return state.nibble(s);
}

/// ORs `value` (< 16) into the clear segment `s` of a GIFT state.
constexpr void or_segment(std::uint64_t& state, unsigned s,
                          std::uint64_t value) noexcept {
  state |= value << (4 * s);
}
constexpr void or_segment(State128& state, unsigned s,
                          std::uint64_t value) noexcept {
  if (s < 16)
    state.lo |= value << (4 * s);
  else
    state.hi |= value << (4 * (s - 16));
}

}  // namespace detail

/// The leaky LUT implementation of GIFT at the width of `Gift` (Gift64
/// or Gift128).
template <typename Gift>
class TableGift {
 public:
  using Block = typename Gift::State;
  using RoundKey = typename Gift::RoundKey;
  /// Precomputed round keys for repeated encryptions under one key.  The
  /// observation hot path (target/platform.h) derives the schedule once
  /// per victim and encrypts with it; the hardened-UpdateKey
  /// countermeasure hands over its own (cm::hardened_round_keys).
  using Schedule = std::vector<RoundKey>;

  explicit TableGift(const TableLayout& layout = TableLayout{});

  [[nodiscard]] const TableLayout& layout() const noexcept { return layout_; }

  /// The first `rounds` round keys of the standard schedule of `key`.
  [[nodiscard]] static Schedule make_schedule(
      const Key128& key, unsigned rounds = Gift::kRounds);

  /// Encrypts like Gift::encrypt, reporting each table access to `sink`.
  template <typename Sink = NullSink>
  [[nodiscard]] Block encrypt(Block plaintext, const Key128& key,
                              Sink* sink = nullptr) const {
    return encrypt_rounds(plaintext, key, Gift::kRounds, sink);
  }

  /// Runs only the first `rounds` rounds.  The round keys go to a stack
  /// buffer, so no encryption of at most Gift::kRounds rounds allocates.
  template <typename Sink = NullSink>
  [[nodiscard]] Block encrypt_rounds(Block plaintext, const Key128& key,
                                     unsigned rounds,
                                     Sink* sink = nullptr) const {
    if (rounds > Gift::kRounds) {
      return encrypt_with_schedule(plaintext, make_schedule(key, rounds),
                                   rounds, sink);
    }
    std::array<RoundKey, Gift::kRounds> rks;
    Key128 k = key;
    for (unsigned r = 0; r < rounds; ++r) {
      rks[r] = Gift::round_key(k);
      k = update_key_state(k);
    }
    return run(plaintext, rks.data(), 0, rounds, sink);
  }

  /// encrypt_rounds with a precomputed schedule (schedule.size() >=
  /// rounds) — the partial-round fast path: the emitted trace is the
  /// exact prefix of the full-round trace, and the returned state matches
  /// the full encryption once rounds == Gift::kRounds.
  template <typename Sink = NullSink>
  [[nodiscard]] Block encrypt_with_schedule(Block plaintext,
                                            std::span<const RoundKey> schedule,
                                            unsigned rounds,
                                            Sink* sink = nullptr) const;

  /// Rounds [first, rounds) of encrypt_with_schedule, from `state`, the
  /// state after its first `first` rounds: splitting a run at any round
  /// returns the same state and emits the same accesses for the rounds
  /// after the split.
  template <typename Sink = NullSink>
  [[nodiscard]] Block encrypt_rounds_from(Block state,
                                          std::span<const RoundKey> schedule,
                                          unsigned first, unsigned rounds,
                                          Sink* sink = nullptr) const {
    assert(schedule.size() >= rounds);
    return run(state, schedule.data(), first, rounds, sink);
  }

  /// Table accesses issued per round: one S-Box and one PermBits lookup
  /// per segment.
  [[nodiscard]] static constexpr unsigned accesses_per_round() noexcept {
    return 2 * Gift::kSegments;
  }

 private:
  /// The round loop, generic over the sink's static type.
  template <typename Sink>
  Block run(Block state, const RoundKey* rks, unsigned first,
            unsigned rounds, Sink* sink) const {
    if constexpr (std::is_same_v<Sink, NullSink>) {
      // No one observes these accesses: the reference round computes the
      // same state from its fused table.
      for (unsigned r = first; r < rounds; ++r) {
        state = Gift::round_function(state, rks[r], r);
      }
      return state;
    }
    for (unsigned r = first; r < rounds; ++r) {
      if (sink) sink->on_round_begin(r);

      // SubCells via the 16-entry S-Box table.  The *index* of each
      // lookup is the current 4-bit segment value — this is what leaks.
      Block substituted{};
      for (unsigned s = 0; s < Gift::kSegments; ++s) {
        const unsigned v = detail::segment(state, s);
        if (sink) {
          sink->on_access(TableAccess{sbox_addr_[v],
                                      TableAccess::Kind::kSBox,
                                      static_cast<std::uint8_t>(r),
                                      static_cast<std::uint8_t>(s),
                                      static_cast<std::uint8_t>(v)});
        }
        detail::or_segment(substituted, s, sbox_table_[v]);
      }

      // PermBits via precomputed per-segment masks.
      Block permuted{};
      for (unsigned s = 0; s < Gift::kSegments; ++s) {
        const unsigned v = detail::segment(substituted, s);
        if (sink) {
          sink->on_access(TableAccess{layout_.perm_row_addr(s, v),
                                      TableAccess::Kind::kPerm,
                                      static_cast<std::uint8_t>(r),
                                      static_cast<std::uint8_t>(s),
                                      static_cast<std::uint8_t>(v)});
        }
        permuted |= perm_table_[s][v];
      }

      // AddRoundKey + constant: pure register arithmetic, no table
      // traffic.
      state = Gift::add_constant(Gift::add_round_key(permuted, rks[r]), r);

      if (sink) sink->on_round_end(r);
    }
    return state;
  }

  TableLayout layout_;
  std::uint8_t sbox_table_[16];
  std::uint64_t sbox_addr_[16];  // = layout_.sbox_row_addr(v), hoisting its
                                 // division off the round loop
  Block perm_table_[Gift::kSegments][16];  // PERM[s][v]
};

template <typename Gift>
template <typename Sink>
typename TableGift<Gift>::Block TableGift<Gift>::encrypt_with_schedule(
    Block plaintext, std::span<const RoundKey> schedule, unsigned rounds,
    Sink* sink) const {
  return encrypt_rounds_from(plaintext, schedule, 0, rounds, sink);
}

using TableGift64 = TableGift<Gift64>;
using TableGift128 = TableGift<Gift128>;

extern template class TableGift<Gift64>;
extern template class TableGift<Gift128>;
extern template std::uint64_t TableGift64::encrypt_with_schedule(
    std::uint64_t, std::span<const RoundKey64>, unsigned,
    VectorTraceSink*) const;
extern template State128 TableGift128::encrypt_with_schedule(
    State128, std::span<const RoundKey128>, unsigned, VectorTraceSink*) const;

}  // namespace grinch::gift
