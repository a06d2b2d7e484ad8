// Table-based (leaky) GIFT-64 implementation.
//
// The GRINCH paper attacks the public GIFT software implementation whose
// SubCells and PermBits layers are realised as look-up tables.  This class
// reproduces that implementation style and *instruments* it: every table
// access is reported to a TraceSink with its memory address, round and
// segment, so the SoC simulation can replay the access stream against the
// cache model.  The same instrumentation points feed the static/dynamic
// leak analyzer in src/analysis/ (docs/LEAKCHECK.md).
//
// Memory layout (configurable through TableLayout):
//   * S-Box table    — 16 4-bit entries.  In the paper's default platform
//     a cache line holds one 8-bit word, i.e. one entry per line.  The
//     countermeasure of §IV-C packs two entries per row (8 rows x 8 bit).
//   * PermBits table — per (segment, value) precomputed 64-bit masks:
//     PERM[s][v] = P64(v << 4s).  One 8-byte row per entry.
//
// Functional correctness is cross-checked against the spec implementation
// (Gift64) in tests/gift/table_gift_test.cpp.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/key128.h"
#include "gift/constants.h"
#include "gift/gift64.h"
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

/// A sink that receives nothing: the templated entry points instantiate
/// with it into the bare round loop (the wide path's rounds before its
/// probe window).
struct NullSink {
  void on_round_begin(unsigned /*round*/) noexcept {}
  void on_access(const TableAccess& /*access*/) noexcept {}
  void on_round_end(unsigned /*round*/) noexcept {}
};

/// TraceSink that collects everything into vectors (tests, offline replay).
/// Final so encrypt()'s VectorTraceSink overload devirtualizes the ~900
/// per-encryption callbacks; clear() keeps capacity, so a reused sink
/// stops allocating after the first encryption.
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

/// The leaky LUT implementation of GIFT-64.
class TableGift64 {
 public:
  /// Supplies the round keys for one encryption.  The default is the
  /// standard GIFT key schedule; the hardened-UpdateKey countermeasure
  /// (§IV-C) substitutes its own provider.
  using RoundKeyProvider =
      std::function<std::vector<RoundKey64>(const Key128&, unsigned rounds)>;

  explicit TableGift64(const TableLayout& layout = TableLayout{},
                       RoundKeyProvider provider = nullptr);

  [[nodiscard]] const TableLayout& layout() const noexcept { return layout_; }

  /// Encrypts like Gift64::encrypt, reporting each table access to `sink`
  /// (may be null for a pure functional run).
  [[nodiscard]] std::uint64_t encrypt(std::uint64_t plaintext,
                                      const Key128& key,
                                      TraceSink* sink = nullptr) const;

  /// Runs only the first `rounds` rounds.
  [[nodiscard]] std::uint64_t encrypt_rounds(std::uint64_t plaintext,
                                             const Key128& key,
                                             unsigned rounds,
                                             TraceSink* sink = nullptr) const;

  /// Hot-path overloads: statically-typed sink (devirtualized callbacks).
  /// Callers holding a concrete VectorTraceSink resolve here for free.
  [[nodiscard]] std::uint64_t encrypt(std::uint64_t plaintext,
                                      const Key128& key,
                                      VectorTraceSink* sink) const;
  [[nodiscard]] std::uint64_t encrypt_rounds(std::uint64_t plaintext,
                                             const Key128& key,
                                             unsigned rounds,
                                             VectorTraceSink* sink) const;

  /// Disambiguators: a literal nullptr sink means "no trace" and would
  /// otherwise match both sink overloads equally well.
  [[nodiscard]] std::uint64_t encrypt(std::uint64_t plaintext,
                                      const Key128& key,
                                      std::nullptr_t) const {
    return encrypt(plaintext, key, static_cast<TraceSink*>(nullptr));
  }
  [[nodiscard]] std::uint64_t encrypt_rounds(std::uint64_t plaintext,
                                             const Key128& key,
                                             unsigned rounds,
                                             std::nullptr_t) const {
    return encrypt_rounds(plaintext, key, rounds,
                          static_cast<TraceSink*>(nullptr));
  }

  /// Precomputed round keys for repeated encryptions under one key.  The
  /// observation hot path (target/platform.h) derives the schedule once
  /// per victim and encrypts with it, skipping the per-call key expansion
  /// (and, for custom providers, its heap allocation).
  using Schedule = std::vector<RoundKey64>;
  [[nodiscard]] Schedule make_schedule(const Key128& key,
                                       unsigned rounds = Gift64::kRounds)
      const {
    return provider_(key, rounds);
  }

  /// encrypt_rounds with a precomputed schedule (schedule.size() >=
  /// rounds).  Runs only the first `rounds` rounds — the partial-round
  /// fast path: the emitted trace is the exact prefix of the full-round
  /// trace, and the returned state matches the full encryption once
  /// rounds == Gift64::kRounds.
  [[nodiscard]] std::uint64_t encrypt_with_schedule(
      std::uint64_t plaintext, std::span<const RoundKey64> schedule,
      unsigned rounds, TraceSink* sink = nullptr) const;
  [[nodiscard]] std::uint64_t encrypt_with_schedule(
      std::uint64_t plaintext, std::span<const RoundKey64> schedule,
      unsigned rounds, VectorTraceSink* sink) const;
  [[nodiscard]] std::uint64_t encrypt_with_schedule(
      std::uint64_t plaintext, std::span<const RoundKey64> schedule,
      unsigned rounds, std::nullptr_t) const {
    return encrypt_with_schedule(plaintext, schedule, rounds,
                                 static_cast<TraceSink*>(nullptr));
  }

  /// Fully static sink (any class with the TraceSink callback shape, no
  /// inheritance required): the round loop and the callbacks inline into
  /// one function — the wide path's presence shortcut counts accesses
  /// with zero dispatch overhead.  Exact-match
  /// overload resolution keeps TraceSink*/VectorTraceSink* callers on
  /// the non-template entry points above.
  template <typename Sink>
  [[nodiscard]] std::uint64_t encrypt_with_schedule(
      std::uint64_t plaintext, std::span<const RoundKey64> schedule,
      unsigned rounds, Sink* sink) const {
    return encrypt_rounds_from(plaintext, schedule, 0, rounds, sink);
  }

  /// Rounds [first, rounds) of encrypt_with_schedule, from `state`, the
  /// state after its first `first` rounds: splitting a run at any round
  /// returns the same state and emits the same accesses for the rounds
  /// after the split.
  template <typename Sink>
  [[nodiscard]] std::uint64_t encrypt_rounds_from(
      std::uint64_t state, std::span<const RoundKey64> schedule,
      unsigned first, unsigned rounds, Sink* sink) const {
    assert(schedule.size() >= rounds);
    return encrypt_with_keys(state, schedule.data(), first, rounds, sink);
  }

  /// Table accesses issued per round (16 S-Box + 16 PermBits lookups).
  [[nodiscard]] static constexpr unsigned accesses_per_round() noexcept {
    return 32;
  }

 private:
  template <typename Sink>
  std::uint64_t encrypt_impl(std::uint64_t plaintext, const Key128& key,
                             unsigned rounds, Sink* sink) const;

  /// The round loop, generic over the sink's static type.  Header-defined
  /// so sink callbacks devirtualize/inline per instantiation.
  template <typename Sink>
  std::uint64_t encrypt_with_keys(std::uint64_t state, const RoundKey64* rks,
                                  unsigned first, unsigned rounds,
                                  Sink* sink) const {
    if constexpr (std::is_same_v<Sink, NullSink>) {
      // No one observes these accesses: the reference round computes the
      // same state from its fused table.
      for (unsigned r = first; r < rounds; ++r) {
        state = Gift64::round_function(state, rks[r], r);
      }
      return state;
    }
    for (unsigned r = first; r < rounds; ++r) {
      if (sink) sink->on_round_begin(r);

      // SubCells via the 16-entry S-Box table.  The *index* of each
      // lookup is the current 4-bit segment value — this is what leaks.
      std::uint64_t substituted = 0;
      for (unsigned s = 0; s < Gift64::kSegments; ++s) {
        const auto v = static_cast<unsigned>((state >> (4 * s)) & 0xF);
        if (sink) {
          sink->on_access(TableAccess{sbox_addr_[v],
                                      TableAccess::Kind::kSBox,
                                      static_cast<std::uint8_t>(r),
                                      static_cast<std::uint8_t>(s),
                                      static_cast<std::uint8_t>(v)});
        }
        substituted |= static_cast<std::uint64_t>(sbox_table_[v]) << (4 * s);
      }

      // PermBits via precomputed per-segment masks.
      std::uint64_t permuted = 0;
      for (unsigned s = 0; s < Gift64::kSegments; ++s) {
        const auto v = static_cast<unsigned>((substituted >> (4 * s)) & 0xF);
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
      state = Gift64::add_round_key(permuted, rks[r]);
      state = add_constant64(state, round_constant(r));

      if (sink) sink->on_round_end(r);
    }
    return state;
  }

  TableLayout layout_;
  /// provider_ is the standard schedule — round keys then come from a
  /// stack buffer instead of a heap vector per encryption.  Declared
  /// before provider_ so it initializes before `provider` is moved from.
  bool standard_schedule_;
  RoundKeyProvider provider_;
  std::uint8_t sbox_table_[16];
  std::uint64_t sbox_addr_[16];       // = layout_.sbox_row_addr(v), hoisting
                                      // its division off the round loop
  std::uint64_t perm_table_[16][16];  // PERM[s][v] = P64 applied to v<<4s
};

/// The standard GIFT-64 key schedule as a RoundKeyProvider.
[[nodiscard]] std::vector<RoundKey64> standard_round_keys(const Key128& key,
                                                          unsigned rounds);

}  // namespace grinch::gift
