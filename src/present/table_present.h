// Table-based (leaky) PRESENT-80 implementation.
//
// Extension target: demonstrates that the GRINCH observation pipeline
// (instrumented LUT cipher -> cache simulation -> probe) generalises to
// PRESENT, whose S-Box is likewise a 16-entry table.  Reuses the GIFT
// trace-sink machinery and the table GIFT victims' entry set (each entry
// point templated on the sink, NullSink by default), so platforms and
// probers work unchanged.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/key128.h"
#include "gift/table_gift.h"
#include "present/present.h"
#include "target/table_layout.h"

namespace grinch::present {

/// Leaky LUT implementation of PRESENT-80 emitting gift::TableAccess
/// events (kind kSBox for sBoxLayer, kPerm for the pLayer masks).  The
/// table placement is the cipher-neutral target::TableLayout.
class TablePresent80 {
 public:
  explicit TablePresent80(
      const target::TableLayout& layout = target::TableLayout{});

  [[nodiscard]] const target::TableLayout& layout() const noexcept {
    return layout_;
  }

  /// Encrypts like Present80::encrypt, reporting each table access to
  /// `sink` (NullSink: none).
  template <typename Sink = gift::NullSink>
  [[nodiscard]] std::uint64_t encrypt(std::uint64_t plaintext,
                                      const Key128& key,
                                      Sink* sink = nullptr) const {
    return encrypt_rounds(plaintext, key, Present80::kRounds, sink);
  }

  /// Runs only the first `rounds` rounds (the whitening key once rounds
  /// reaches Present80::kRounds).
  template <typename Sink = gift::NullSink>
  [[nodiscard]] std::uint64_t encrypt_rounds(std::uint64_t plaintext,
                                             const Key128& key,
                                             unsigned rounds,
                                             Sink* sink = nullptr) const {
    const RoundKeys rks = Present80::round_keys(key);
    return encrypt_with_schedule(plaintext, rks, rounds, sink);
  }

  /// All 32 PRESENT round keys (index r = key of round r; index 31 = the
  /// final whitening key).  The observation hot path expands them once
  /// per victim instead of per encryption.
  using Schedule = std::vector<std::uint64_t>;
  [[nodiscard]] static Schedule make_schedule(const Key128& key);

  /// encrypt_rounds with a precomputed schedule (schedule.size() == 32):
  /// the partial-round fast path — the emitted trace is the exact prefix
  /// of the full-round trace, and the returned state matches the full
  /// encryption once rounds >= Present80 rounds (whitening applied).
  template <typename Sink = gift::NullSink>
  [[nodiscard]] std::uint64_t encrypt_with_schedule(
      std::uint64_t plaintext, std::span<const std::uint64_t> rks,
      unsigned rounds, Sink* sink = nullptr) const {
    return encrypt_rounds_from(plaintext, rks, 0, rounds, sink);
  }

  /// Rounds [first, rounds) of encrypt_with_schedule, from `state`, the
  /// state after its first `first` rounds.  The final whitening belongs
  /// to the call that runs the last round, so a split run applies it
  /// once.
  template <typename Sink = gift::NullSink>
  [[nodiscard]] std::uint64_t encrypt_rounds_from(
      std::uint64_t state, std::span<const std::uint64_t> rks, unsigned first,
      unsigned rounds, Sink* sink = nullptr) const {
    assert(rks.size() > Present80::kRounds);
    for (unsigned r = first; r < rounds && r < Present80::kRounds; ++r) {
      if (sink) sink->on_round_begin(r);
      state ^= rks[r];

      std::uint64_t substituted = 0;
      for (unsigned s = 0; s < 16; ++s) {
        const auto v = static_cast<unsigned>((state >> (4 * s)) & 0xF);
        if (sink) {
          sink->on_access(gift::TableAccess{sbox_addr_[v],
                                            gift::TableAccess::Kind::kSBox,
                                            static_cast<std::uint8_t>(r),
                                            static_cast<std::uint8_t>(s),
                                            static_cast<std::uint8_t>(v)});
        }
        substituted |= static_cast<std::uint64_t>(sbox_table_[v]) << (4 * s);
      }

      std::uint64_t permuted = 0;
      for (unsigned s = 0; s < 16; ++s) {
        const auto v = static_cast<unsigned>((substituted >> (4 * s)) & 0xF);
        if (sink) {
          sink->on_access(gift::TableAccess{layout_.perm_row_addr(s, v),
                                            gift::TableAccess::Kind::kPerm,
                                            static_cast<std::uint8_t>(r),
                                            static_cast<std::uint8_t>(s),
                                            static_cast<std::uint8_t>(v)});
        }
        permuted |= perm_table_[s][v];
      }
      state = permuted;
      if (sink) sink->on_round_end(r);
    }
    if (first < Present80::kRounds && rounds >= Present80::kRounds) {
      state ^= rks[Present80::kRounds];
    }
    return state;
  }

 private:
  target::TableLayout layout_;
  std::uint8_t sbox_table_[16];
  std::uint64_t sbox_addr_[16];  // = layout_.sbox_row_addr(v), hoisting its
                                 // division off the round loop
  std::uint64_t perm_table_[16][16];
};

}  // namespace grinch::present
