#include "present/present.h"

#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::present {
namespace {

using gift::present_permutation;
using gift::present_sbox;

std::uint64_t sbox_layer(std::uint64_t state) {
  return present_sbox().apply_state64(state);
}

std::uint64_t inv_sbox_layer(std::uint64_t state) {
  return present_sbox().invert_state64(state);
}

std::uint64_t p_layer(std::uint64_t state) {
  return present_permutation().apply64(state);
}

std::uint64_t inv_p_layer(std::uint64_t state) {
  return present_permutation().invert64(state);
}

/// Round keys of PRESENT-128.
RoundKeys expand128(const Key128& key) noexcept {
  std::uint64_t hi = key.hi, lo = key.lo;
  RoundKeys rks{};
  for (unsigned round = 1; round <= 32; ++round) {
    rks[round - 1] = hi;  // leftmost 64 bits
    // 1) rotate the 128-bit register left by 61.
    const std::uint64_t nhi = (hi << 61) | (lo >> 3);
    const std::uint64_t nlo = (lo << 61) | (hi >> 3);
    hi = nhi;
    lo = nlo;
    // 2) S-Box on the top 8 bits (two nibbles).
    const unsigned n1 = static_cast<unsigned>(hi >> 60) & 0xF;
    const unsigned n2 = static_cast<unsigned>(hi >> 56) & 0xF;
    hi = (hi & 0x00FFFFFFFFFFFFFFull) |
         (static_cast<std::uint64_t>(present_sbox().apply(n1)) << 60) |
         (static_cast<std::uint64_t>(present_sbox().apply(n2)) << 56);
    // 3) XOR round counter into bits 66..62.
    hi ^= static_cast<std::uint64_t>(round) >> 2;          // bits 66..64
    lo ^= static_cast<std::uint64_t>(round & 0x3) << 62;   // bits 63..62
  }
  return rks;
}

std::uint64_t run_encrypt(std::uint64_t state, const RoundKeys& rks) {
  for (unsigned r = 0; r < 31; ++r) {
    state ^= rks[r];
    state = sbox_layer(state);
    state = p_layer(state);
  }
  return state ^ rks[31];
}

std::uint64_t run_decrypt(std::uint64_t state, const RoundKeys& rks) {
  state ^= rks[31];
  for (unsigned r = 31; r-- > 0;) {
    state = inv_p_layer(state);
    state = inv_sbox_layer(state);
    state ^= rks[r];
  }
  return state;
}

}  // namespace

RoundKeys Present80::round_keys(const Key128& key) noexcept {
  // 80-bit key register: hi = bits 79..64, lo = bits 63..0.
  auto hi = static_cast<std::uint16_t>(key.hi & 0xFFFF);
  std::uint64_t lo = key.lo;
  RoundKeys rks{};
  for (unsigned round = 1; round <= 32; ++round) {
    // Round key = leftmost 64 bits, i.e. bits 79..16 of the register.
    rks[round - 1] = (static_cast<std::uint64_t>(hi) << 48) | (lo >> 16);
    // 1) rotate the 80-bit register left by 61 (== right by 19).
    const std::uint64_t new_lo =
        (lo >> 19) | (static_cast<std::uint64_t>(hi) << 45) | (lo << 61);
    hi = static_cast<std::uint16_t>((lo >> 3) & 0xFFFF);
    lo = new_lo;
    // 2) S-Box on the top 4 bits (79..76).
    const unsigned top = (hi >> 12) & 0xF;
    hi = static_cast<std::uint16_t>((hi & 0x0FFF) |
                                    (present_sbox().apply(top) << 12));
    // 3) XOR round counter into bits 19..15.
    lo ^= static_cast<std::uint64_t>(round) << 15;
  }
  return rks;
}

std::uint64_t Present80::encrypt(std::uint64_t plaintext, const Key128& key) {
  return run_encrypt(plaintext, round_keys(key));
}

std::uint64_t Present80::decrypt(std::uint64_t ciphertext, const Key128& key) {
  return run_decrypt(ciphertext, round_keys(key));
}

std::uint64_t Present128::encrypt(std::uint64_t plaintext, const Key128& key) {
  return run_encrypt(plaintext, expand128(key));
}

std::uint64_t Present128::decrypt(std::uint64_t ciphertext, const Key128& key) {
  return run_decrypt(ciphertext, expand128(key));
}

}  // namespace grinch::present
