// The cipher-agnostic observation contract of the attack pipeline.
//
// Every platform — RTL-style direct probe, RTOS single-core SoC, mesh
// MPSoC, memory hierarchy — yields the same Observation shape: per-S-Box-
// index line presence plus metadata.  The ObservationSource interface is
// parameterised on the cipher's *block type only*, so 64-bit-block ciphers
// (GIFT-64, PRESENT-80) share one interface instantiation and attack
// engines can drive any platform of a matching block width polymorphically.
//
// Observation is a fixed-size value type (LineSet bitsets, no heap): the
// elimination engine consumes hundreds of thousands per figure and batch
// buffers hold them by value.  The monitored encryption's ciphertext is
// NOT part of an observation — the probe sees cache lines, not data; the
// attack fetches the published ciphertext of the *last* encryption through
// last_ciphertext() when it verifies a recovered key, which lets platforms
// truncate the simulated encryption at the probe point (the partial-round
// fast path, docs/TARGETS.md) and only complete it on demand.
//
// Probing-round semantics (documented also in DESIGN.md): "probing round
// k" for an attack stage `s` (0-based) means the probe observes the cache
// after k rounds of the monitored window have executed.  Which cipher
// round opens the window depends on the target's key-mix position (see
// CipherTraits::kFirstKeyDependentRound in the per-cipher traits): GIFT
// mixes the key *after* the S-Box layer, so stage s monitors cipher round
// s+1; PRESENT mixes it *before*, so stage 0 monitors round 0 directly.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "cachesim/kernels/kernels.h"
#include "target/line_set.h"
#include "target/table_layout.h"

namespace grinch::target {

/// Probing technique selector.
enum class ProbeMethod : std::uint8_t { kFlushReload, kPrimeProbe };

/// What one monitored encryption yielded to the attacker.
struct Observation {
  /// present[i]: the cache line holding S-Box index i was resident.
  LineSet present;
  /// Cipher rounds (0-based, exclusive) whose accesses the probe covers.
  unsigned probed_after_round = 0;
  /// Attacker cycles spent preparing + probing.
  std::uint64_t attacker_cycles = 0;
  /// Trace-driven channel (paper's taxonomy, ref [10]: hits/misses are
  /// visible in the power trace): per monitored-round S-Box access
  /// (segment order), whether it HIT.  Empty when the platform does not
  /// capture traces.  Only meaningful with an attacker flush before the
  /// monitored round.
  LineSet sbox_hits;
  /// The probe missed this encryption's window (channel fault model,
  /// target/fault_model.h): the attacker *knows* the probe was late, so
  /// the observation is detectably useless and consumers must skip its
  /// content (the encryption still happened and still costs budget).
  /// Platforms never set this — only fault-injection decorators do.
  bool dropped = false;
};

/// Reusable buffer for observe_batch results (elements are fixed-size, so
/// a warm buffer never reallocates).
using ObservationBatch = std::vector<Observation>;

/// Struct-of-arrays batch of up to 64 observations, transposed: the
/// presence verdicts live row-major — bit `lane` of row word r is lane
/// `lane`'s verdict for S-Box index r — so WideObserveCore writes all 64
/// lanes with one kernel bit transpose (docs/TARGETS.md, "The wide
/// path").  One writer (assign_all), one reader (extract/present_word).
class WideObservationBatch {
 public:
  static constexpr unsigned kMaxWidth = 64;

  /// Clears the batch to `width` lanes of (up to) `rows`-row verdicts.
  void reset(unsigned width, unsigned rows) {
    assert(width <= kMaxWidth && rows <= LineSet::kMaxBits);
    width_ = width;
    rows_ = rows;
    row_lanes_.fill(0);
  }

  [[nodiscard]] unsigned width() const noexcept { return width_; }
  [[nodiscard]] unsigned rows() const noexcept { return rows_; }

  /// Bulk transposed writer: one kernel 64x64 bit transpose.
  /// present_words[l] carries lane l's verdicts over rows() rows; entries
  /// for lanes >= width() and bits >= rows() must be zero (the transpose
  /// writes all 64 row words verbatim).
  void assign_all(const std::uint64_t* present_words,
                  const std::uint32_t* probed_after,
                  const std::uint64_t* cycles) noexcept {
    cachesim::kernels::active().transpose_64x64(present_words,
                                               row_lanes_.data());
    for (unsigned l = 0; l < width_; ++l) {
      lane_probed_after_[l] = probed_after[l];
      lane_cycles_[l] = cycles[l];
    }
  }

  /// Rebuilds lane `lane`'s Observation, bit-identical to the scalar
  /// observe() the wide path models.
  [[nodiscard]] Observation extract(unsigned lane) const noexcept {
    assert(lane < width_);
    Observation o;
    o.present = LineSet::from_word(present_word(lane), rows_);
    o.probed_after_round = lane_probed_after_[lane];
    o.attacker_cycles = lane_cycles_[lane];
    return o;
  }

  /// Lane `lane`'s presence verdicts gathered back into index-major
  /// order (the kernel column gather — hot in the engines' per-lane
  /// extract step).
  [[nodiscard]] std::uint64_t present_word(unsigned lane) const noexcept {
    return cachesim::kernels::active().gather_column(row_lanes_.data(), rows_,
                                                     lane);
  }

 private:
  unsigned width_ = 0;
  unsigned rows_ = 0;
  /// row_lanes_[r] bit l: lane l's verdict for row r (the transposition).
  std::array<std::uint64_t, LineSet::kMaxBits> row_lanes_{};
  std::array<std::uint32_t, kMaxWidth> lane_probed_after_{};
  std::array<std::uint64_t, kMaxWidth> lane_cycles_{};
};

/// A platform the attack can drive: one monitored encryption per call.
/// `Block` is the cipher's plaintext/ciphertext type (std::uint64_t for
/// 64-bit-block ciphers, gift::State128 for GIFT-128).
template <typename Block>
class ObservationSource {
 public:
  virtual ~ObservationSource() = default;

  /// Runs one victim encryption of `plaintext` and returns the probe
  /// observation for attack stage `stage` (see header comment).
  virtual Observation observe(Block plaintext, unsigned stage) = 0;

  /// Observes `plaintexts` in order, as if observe() were called for each
  /// one left to right: out[i] is bit-identical to what the scalar call
  /// would have produced, and last_ciphertext() afterwards refers to the
  /// final element.  Platforms override this to amortise per-encryption
  /// bookkeeping (bounds derivation, prober/sink reuse) across the batch;
  /// the default is the scalar loop, so overriding is never required for
  /// correctness.  `out` is resized to the batch; reuse it across calls to
  /// keep the path allocation-free.
  virtual void observe_batch(std::span<const Block> plaintexts, unsigned stage,
                             ObservationBatch& out) {
    out.resize(plaintexts.size());
    for (std::size_t i = 0; i < plaintexts.size(); ++i) {
      out[i] = observe(plaintexts[i], stage);
    }
  }

  /// Hints which segment the attacker currently targets; platforms with
  /// precision probing (§III-D "Cache Probing Precision") time their
  /// probe right after that segment's S-Box access.  Default: ignored.
  virtual void focus_segment(unsigned segment) { (void)segment; }

  /// Table layout of the victim (the attack maps indices to lines).
  [[nodiscard]] virtual const TableLayout& layout() const = 0;

  /// line_id[i] = opaque id of the cache line holding S-Box index i.
  /// Indices with equal ids are indistinguishable to the prober.
  [[nodiscard]] virtual std::vector<unsigned> index_line_ids() const = 0;

  /// Full-width ciphertext of the last observed encryption (the attack
  /// verifies its recovered key against it).  Platforms running the
  /// partial-round fast path complete the encryption lazily here.
  [[nodiscard]] virtual Block last_ciphertext() const = 0;
};

/// Computes index->line ids for a layout under a given line size.
[[nodiscard]] std::vector<unsigned> compute_index_line_ids(
    const TableLayout& layout, unsigned line_bytes);

}  // namespace grinch::target
