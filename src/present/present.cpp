#include "present/present.h"

#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::present {
namespace {

using gift::kPresentSBox;
using gift::present_permutation;
using gift::present_sbox;

/// Entry [b][v]: the pLayer image of byte v at byte b after the S-Box
/// (see the header), from the S-Box values and the pLayer's closed form.
using RoundTable = std::array<std::array<std::uint64_t, 256>, 8>;

constexpr RoundTable make_round_table() {
  RoundTable table{};
  for (unsigned b = 0; b < 8; ++b) {
    for (unsigned v = 0; v < 256; ++v) {
      const unsigned substituted =
          static_cast<unsigned>(kPresentSBox[v >> 4] << 4) |
          kPresentSBox[v & 0xF];
      std::uint64_t image = 0;
      for (unsigned k = 0; k < 8; ++k) {
        if (((substituted >> k) & 1u) == 0) continue;
        image |= std::uint64_t{1} << gift::present_p_layer_bit(8 * b + k);
      }
      table[b][v] = image;
    }
  }
  return table;
}

constexpr RoundTable kRoundTable = make_round_table();

/// sBoxLayer then pLayer: the S-Box stays within a byte and the pLayer
/// only moves bits, so the round is the OR of the 8 byte images.
std::uint64_t sbox_p_layer(std::uint64_t state) noexcept {
  std::uint64_t out = 0;
  for (unsigned b = 0; b < 8; ++b) {
    out |= kRoundTable[b][(state >> (8 * b)) & 0xFF];
  }
  return out;
}

std::uint64_t inv_sbox_layer(std::uint64_t state) {
  return present_sbox().invert_state64(state);
}

std::uint64_t inv_p_layer(std::uint64_t state) {
  return present_permutation().invert64(state);
}

/// PRESENT-80's key register: hi = bits 79..64, lo = bits 63..0.
class KeyRegister80 {
 public:
  explicit KeyRegister80(const Key128& key) noexcept
      : hi_(key.hi & 0xFFFF), lo_(key.lo) {}

  /// The current round key, then one update step.
  std::uint64_t next() noexcept {
    // Round key = leftmost 64 bits, i.e. bits 79..16 of the register.
    const std::uint64_t round_key = (hi_ << 48) | (lo_ >> 16);
    // 1) rotate the 80-bit register left by 61 (== right by 19).
    const std::uint64_t lo = (lo_ >> 19) | (hi_ << 45) | (lo_ << 61);
    hi_ = (lo_ >> 3) & 0xFFFF;
    // 2) S-Box on the top 4 bits (79..76).
    hi_ = (hi_ & 0x0FFF) | (std::uint64_t{kPresentSBox[hi_ >> 12]} << 12);
    // 3) XOR round counter into bits 19..15.
    lo_ = lo ^ (std::uint64_t{++round_} << 15);
    return round_key;
  }

 private:
  std::uint64_t hi_;
  std::uint64_t lo_;
  unsigned round_ = 0;
};

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

/// The 31 rounds and the whitening key; each call of `next_key()` yields
/// the next of the 32 round keys.
template <typename NextKey>
std::uint64_t run_encrypt(std::uint64_t state, NextKey next_key) {
  for (unsigned r = 0; r < 31; ++r) state = sbox_p_layer(state ^ next_key());
  return state ^ next_key();
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
  KeyRegister80 reg{key};
  RoundKeys rks{};
  for (std::uint64_t& rk : rks) rk = reg.next();
  return rks;
}

std::uint64_t Present80::encrypt(std::uint64_t plaintext, const Key128& key) {
  KeyRegister80 reg{key};
  return run_encrypt(plaintext, [&reg] { return reg.next(); });
}

std::uint64_t Present80::decrypt(std::uint64_t ciphertext, const Key128& key) {
  return run_decrypt(ciphertext, round_keys(key));
}

std::uint64_t Present128::encrypt(std::uint64_t plaintext, const Key128& key) {
  const RoundKeys rks = expand128(key);
  return run_encrypt(plaintext, [&rks, r = 0u]() mutable { return rks[r++]; });
}

std::uint64_t Present128::decrypt(std::uint64_t ciphertext, const Key128& key) {
  return run_decrypt(ciphertext, expand128(key));
}

}  // namespace grinch::present
