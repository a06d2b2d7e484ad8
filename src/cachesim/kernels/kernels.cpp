#include "cachesim/kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace grinch::cachesim::kernels {

namespace {

// ---------------------------------------------------------------------------
// generic: the straight scalar loops.  Every other kernel is pinned
// bit-identical to these (tests/cachesim/kernels_test.cpp).

void transpose_64x64_generic(const std::uint64_t* in, std::uint64_t* out) {
  for (unsigned r = 0; r < 64; ++r) {
    std::uint64_t word = 0;
    for (unsigned c = 0; c < 64; ++c) {
      word |= ((in[c] >> r) & 1u) << c;
    }
    out[r] = word;
  }
}

std::uint64_t gather_column_generic(const std::uint64_t* rows, unsigned nrows,
                                    unsigned column) {
  std::uint64_t word = 0;
  for (unsigned r = 0; r < nrows; ++r) {
    word |= ((rows[r] >> column) & 1u) << r;
  }
  return word;
}

// ---------------------------------------------------------------------------
// swar: branchless word-parallel versions, portable to any 64-bit target.

void transpose_64x64_swar(const std::uint64_t* in, std::uint64_t* out) {
  // Recursive block swap (the Hacker's Delight transpose, LSB-first):
  // for each delta j, swap the (row j-bit 0, column j-bit 1) sub-block
  // with the (row j-bit 1, column j-bit 0) one.  6 deltas x 32 row pairs
  // x ~5 word ops replaces the 64x64 bit loop.
  std::memcpy(out, in, 64 * sizeof(std::uint64_t));
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((out[k] >> j) ^ out[k | j]) & m;
      out[k | j] ^= t;
      out[k] ^= t << j;
    }
  }
}

std::uint64_t gather_column_swar(const std::uint64_t* rows, unsigned nrows,
                                 unsigned column) {
  // Same bit gather as generic, unrolled so the four independent
  // extract-shift chains pipeline (no SWAR trick applies across words).
  std::uint64_t word = 0;
  unsigned r = 0;
  for (; r + 4 <= nrows; r += 4) {
    word |= ((rows[r] >> column) & 1u) << r;
    word |= ((rows[r + 1] >> column) & 1u) << (r + 1);
    word |= ((rows[r + 2] >> column) & 1u) << (r + 2);
    word |= ((rows[r + 3] >> column) & 1u) << (r + 3);
  }
  for (; r < nrows; ++r) word |= ((rows[r] >> column) & 1u) << r;
  return word;
}

constexpr Ops kGenericOps{transpose_64x64_generic, gather_column_generic,
                          Kind::kGeneric, "generic"};

constexpr Ops kSwarOps{transpose_64x64_swar, gather_column_swar, Kind::kSwar,
                       "swar"};

bool cpu_has_avx2() noexcept {
#if defined(GRINCH_KERNELS_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

#if defined(GRINCH_KERNELS_AVX2)
// Defined in kernels_avx2.cpp (the only TU compiled with -mavx2).
extern const Ops kAvx2Ops;
#endif

bool available(Kind kind) noexcept {
  switch (kind) {
    case Kind::kGeneric:
    case Kind::kSwar:
      return true;
    case Kind::kAvx2:
      return cpu_has_avx2();
  }
  return false;
}

const Ops& ops(Kind kind) noexcept {
  switch (kind) {
    case Kind::kGeneric:
      return kGenericOps;
    case Kind::kSwar:
      return kSwarOps;
    case Kind::kAvx2:
#if defined(GRINCH_KERNELS_AVX2)
      if (cpu_has_avx2()) return kAvx2Ops;
#endif
      break;
  }
  return kGenericOps;
}

namespace {

std::atomic<const Ops*> g_active{nullptr};

const Ops* resolve_default() noexcept {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, before any threads.
  if (const char* env = std::getenv("GRINCH_KERNEL"); env != nullptr) {
    // An unavailable or unknown name falls through to auto-selection so a
    // forced run can never pick a kernel the binary cannot execute.
    if (std::strcmp(env, "generic") == 0) return &kGenericOps;
    if (std::strcmp(env, "swar") == 0) return &kSwarOps;
    if (std::strcmp(env, "avx2") == 0 && available(Kind::kAvx2)) {
      return &ops(Kind::kAvx2);
    }
  }
  if (available(Kind::kAvx2)) return &ops(Kind::kAvx2);
  return &kSwarOps;
}

}  // namespace

const Ops& active() noexcept {
  const Ops* p = g_active.load(std::memory_order_acquire);
  if (p == nullptr) {
    // Benign first-use race: every racer resolves the same pointer.
    p = resolve_default();
    g_active.store(p, std::memory_order_release);
  }
  return *p;
}

Kind set_active(Kind kind) noexcept {
  const Kind previous = active().kind;
  g_active.store(&ops(kind), std::memory_order_release);
  return previous;
}

}  // namespace grinch::cachesim::kernels
