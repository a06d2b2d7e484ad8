// AVX2 kernel implementations.  This is the only TU compiled with
// -mavx2 (see src/cachesim/CMakeLists.txt); it is linked in only when the
// toolchain targets x86 and accepts the flag, and kernels.cpp selects it
// only when the CPU reports AVX2 at runtime — so the rest of the library
// stays baseline-ISA clean.
#include "cachesim/kernels/kernels.h"

#if defined(GRINCH_KERNELS_AVX2)

#include <immintrin.h>

#include <cstring>

namespace grinch::cachesim::kernels {

namespace {

void transpose_64x64_avx2(const std::uint64_t* in, std::uint64_t* out) {
  // The SWAR block swap with the delta >= 4 passes vectorized: for those
  // deltas the paired rows k and k | j sit 4-aligned, so each swap step
  // processes four row pairs per iteration.  Deltas 2 and 1 pair rows
  // inside one vector register; the scalar loop is cheaper than the
  // cross-lane shuffles they would need.
  std::memcpy(out, in, 64 * sizeof(std::uint64_t));
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  unsigned j = 32;
  for (; j >= 4; j >>= 1, m ^= m << j) {
    const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
    for (unsigned base = 0; base < 64; base += 2 * j) {
      for (unsigned k = base; k < base + j; k += 4) {
        __m256i lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + k));
        __m256i hi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + k + j));
        const __m256i t = _mm256_and_si256(
            _mm256_xor_si256(_mm256_srli_epi64(lo, static_cast<int>(j)), hi),
            vm);
        hi = _mm256_xor_si256(hi, t);
        lo = _mm256_xor_si256(lo, _mm256_slli_epi64(t, static_cast<int>(j)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k + j), hi);
      }
    }
  }
  for (; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((out[k] >> j) ^ out[k | j]) & m;
      out[k | j] ^= t;
      out[k] ^= t << j;
    }
  }
}

std::uint64_t gather_column_avx2(const std::uint64_t* rows, unsigned nrows,
                                 unsigned column) {
  // Shift the wanted column into the sign bit of each row and harvest
  // four verdicts per movemask.
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(63 - column));
  std::uint64_t word = 0;
  unsigned r = 0;
  for (; r + 4 <= nrows; r += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + r));
    const int mask = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_sll_epi64(v, shift)));
    word |= static_cast<std::uint64_t>(static_cast<unsigned>(mask)) << r;
  }
  for (; r < nrows; ++r) word |= ((rows[r] >> column) & 1u) << r;
  return word;
}

}  // namespace

// extern: const objects default to internal linkage, but kernels.cpp
// references this table by name.
extern const Ops kAvx2Ops;
const Ops kAvx2Ops{transpose_64x64_avx2, gather_column_avx2, Kind::kAvx2,
                   "avx2"};

}  // namespace grinch::cachesim::kernels

#endif  // GRINCH_KERNELS_AVX2
