// Runtime-dispatched SIMD kernels for the wide observation path.
//
// Two loop shapes sit on the wide path once the per-lane bookkeeping is
// amortised (docs/TARGETS.md, "The wide path"):
//   * the 64x64 bit-matrix transpose that turns 64 lane-major presence
//     words into the row-major layout of WideObservationBatch;
//   * the presence-word column gather that folds a transposed batch back
//     into one lane's index-major word.
// Each shape is provided in up to three implementations selected at
// runtime: `generic` (the straight scalar loops, the conformance
// reference), `swar` (branchless word-parallel — portable to any 64-bit
// target, including non-x86 builds), and `avx2` (256-bit SIMD, compiled
// into the library only when the toolchain targets x86 and accepts
// -mavx2, and selected only when the CPU reports the feature).
//
// Dispatch contract:
//   * every kernel is bit-identical to `generic` for every input the
//     callers can produce (pinned by tests/cachesim/kernels_test.cpp and
//     the wide conformance suites, which iterate every available kind);
//   * the active kind is resolved once, at first use: the best available
//     implementation for the CPU, overridable with GRINCH_KERNEL=
//     generic|swar|avx2 (an unavailable or unknown name falls back to
//     the default choice, so forced-kernel CI runs cannot select a
//     kernel the binary cannot execute);
//   * tests switch kernels with ScopedKernel; every caller looks the
//     active table up per call (nothing caches an Ops pointer), so a
//     scope takes effect immediately, for objects built before it too.
#pragma once

#include <cstdint>

namespace grinch::cachesim::kernels {

enum class Kind : std::uint8_t { kGeneric = 0, kSwar = 1, kAvx2 = 2 };

/// One implementation of the two loop shapes.  Both pointers are always
/// non-null.
struct Ops {
  /// 64x64 bit-matrix transpose: out[r] bit c = in[c] bit r (LSB-first).
  /// `in` and `out` are distinct 64-word arrays.
  void (*transpose_64x64)(const std::uint64_t* in, std::uint64_t* out);

  /// Column gather: bit r of the result = (rows[r] >> column) & 1 for
  /// r < nrows (<= 64); higher result bits are zero.
  std::uint64_t (*gather_column)(const std::uint64_t* rows, unsigned nrows,
                                 unsigned column);

  Kind kind = Kind::kGeneric;
  const char* name = "generic";
};

/// The process-wide active implementation (never null).  First call
/// resolves the default: GRINCH_KERNEL override if available, else the
/// best implementation the CPU supports.
[[nodiscard]] const Ops& active() noexcept;

/// True when `kind` was compiled in and the CPU can execute it.
[[nodiscard]] bool available(Kind kind) noexcept;

/// The Ops table for `kind`; pre-condition: available(kind).
[[nodiscard]] const Ops& ops(Kind kind) noexcept;

/// Forces the active implementation (testing); returns the previous
/// kind.  Pre-condition: available(kind).
Kind set_active(Kind kind) noexcept;

/// RAII kernel override for tests: forces `kind` for the scope.
class ScopedKernel {
 public:
  explicit ScopedKernel(Kind kind) noexcept : previous_(set_active(kind)) {}
  ~ScopedKernel() { set_active(previous_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  Kind previous_;
};

}  // namespace grinch::cachesim::kernels
