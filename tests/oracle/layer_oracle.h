// Unoptimised oracle for the reference ciphers' layers.
//
// Every routine here moves one bit (PermBits, pLayer, AddRoundKey) or one
// nibble (SubCells) per loop step, built only from the closed-form maps
// (BitPermutation::forward/inverse, SBox::apply/invert), the round-
// constant LFSR and the specifications' key schedules.  The differential
// tests next to the KATs run the table-driven routines of src/gift and
// src/present against these on random inputs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/key128.h"
#include "gift/constants.h"
#include "gift/gift128.h"
#include "gift/key_schedule.h"
#include "gift/permutation.h"
#include "gift/sbox.h"

namespace grinch::oracle {

/// Bit i of `state` moves to bit p.forward(i) (inverse: p.inverse(i)).
inline std::uint64_t permute64(const gift::BitPermutation& p,
                               std::uint64_t state, bool inverse = false) {
  std::uint64_t out = 0;
  for (unsigned i = 0; i < 64; ++i) {
    const unsigned j = inverse ? p.inverse(i) : p.forward(i);
    out |= ((state >> i) & 1u) << j;
  }
  return out;
}

inline gift::State128 permute128(const gift::BitPermutation& p,
                                 gift::State128 state, bool inverse = false) {
  gift::State128 out;
  for (unsigned i = 0; i < 128; ++i) {
    out.xor_bit(inverse ? p.inverse(i) : p.forward(i), state.bit(i));
  }
  return out;
}

/// Substitutes each 4-bit segment through SBox::apply (or invert).
inline std::uint64_t sub_cells64(const gift::SBox& sbox, std::uint64_t state,
                                 bool inverse = false) {
  std::uint64_t out = 0;
  for (unsigned i = 0; i < 16; ++i) {
    const auto v = static_cast<unsigned>((state >> (4 * i)) & 0xF);
    out |= std::uint64_t{inverse ? sbox.invert(v) : sbox.apply(v)} << (4 * i);
  }
  return out;
}

inline gift::State128 sub_cells128(gift::State128 state,
                                   bool inverse = false) {
  return {sub_cells64(gift::gift_sbox(), state.hi, inverse),
          sub_cells64(gift::gift_sbox(), state.lo, inverse)};
}

/// GIFT-64 AddRoundKey: V_i into state bit 4i, U_i into bit 4i+1.
inline std::uint64_t add_round_key64(std::uint64_t state,
                                     const gift::RoundKey64& rk) {
  for (unsigned i = 0; i < 16; ++i) {
    state ^= static_cast<std::uint64_t>((rk.v >> i) & 1u) << (4 * i);
    state ^= static_cast<std::uint64_t>((rk.u >> i) & 1u) << (4 * i + 1);
  }
  return state;
}

/// GIFT-128 AddRoundKey: V_i into state bit 4i+1, U_i into bit 4i+2.
inline gift::State128 add_round_key128(gift::State128 state,
                                       const gift::RoundKey128& rk) {
  for (unsigned i = 0; i < 32; ++i) {
    state.xor_bit(4 * i + 1, (rk.v >> i) & 1u);
    state.xor_bit(4 * i + 2, (rk.u >> i) & 1u);
  }
  return state;
}

/// Round constants straight from the stateful LFSR.
template <unsigned Rounds>
std::array<std::uint8_t, Rounds> lfsr_constants() {
  std::array<std::uint8_t, Rounds> out{};
  gift::RoundConstantLfsr lfsr;
  for (auto& c : out) c = lfsr.next();
  return out;
}

/// The constant c and the fixed MSB '1' (bit `msb`) as state bits.
inline gift::State128 constant_bits(std::uint8_t c, unsigned msb) {
  gift::State128 s;
  s.xor_bit(msb, 1);
  for (unsigned t = 0; t < 6; ++t) s.xor_bit(4 * t + 3, (c >> t) & 1u);
  return s;
}

/// GIFT-64 round r: SubCells, PermBits, AddRoundKey with `rk`, then the
/// constant of round r and the MSB.  A zero `rk` leaves the pre-key state.
inline std::uint64_t gift64_round(std::uint64_t state,
                                  const gift::RoundKey64& rk, unsigned r) {
  state = sub_cells64(gift::gift_sbox(), state);
  state = permute64(gift::gift64_permutation(), state);
  state = add_round_key64(state, rk);
  return state ^ constant_bits(lfsr_constants<63>()[r % 63], 63).lo;
}

inline std::uint64_t gift64_inverse_round(std::uint64_t state,
                                          const gift::RoundKey64& rk,
                                          unsigned r) {
  state ^= constant_bits(lfsr_constants<63>()[r % 63], 63).lo;
  state = add_round_key64(state, rk);
  state = permute64(gift::gift64_permutation(), state, true);
  return sub_cells64(gift::gift_sbox(), state, true);
}

inline std::uint64_t gift64_encrypt(std::uint64_t state, const Key128& key) {
  const gift::KeySchedule schedule{key, 28};
  for (unsigned r = 0; r < 28; ++r) {
    state = gift64_round(state, schedule.round_key64(r), r);
  }
  return state;
}

inline std::uint64_t gift64_decrypt(std::uint64_t state, const Key128& key) {
  const gift::KeySchedule schedule{key, 28};
  for (unsigned r = 28; r-- > 0;) {
    state = gift64_inverse_round(state, schedule.round_key64(r), r);
  }
  return state;
}

inline gift::State128 xor128(gift::State128 a, gift::State128 b) {
  return {a.hi ^ b.hi, a.lo ^ b.lo};
}

/// GIFT-128 round r, as gift64_round.
inline gift::State128 gift128_round(gift::State128 state,
                                    const gift::RoundKey128& rk, unsigned r) {
  state = sub_cells128(state);
  state = permute128(gift::gift128_permutation(), state);
  state = add_round_key128(state, rk);
  return xor128(state, constant_bits(lfsr_constants<63>()[r % 63], 127));
}

inline gift::State128 gift128_inverse_round(gift::State128 state,
                                            const gift::RoundKey128& rk,
                                            unsigned r) {
  state = xor128(state, constant_bits(lfsr_constants<63>()[r % 63], 127));
  state = add_round_key128(state, rk);
  state = permute128(gift::gift128_permutation(), state, true);
  return sub_cells128(state, true);
}

inline gift::State128 gift128_encrypt(gift::State128 state,
                                      const Key128& key) {
  const gift::KeySchedule schedule{key, 40};
  for (unsigned r = 0; r < 40; ++r) {
    state = gift128_round(state, schedule.round_key128(r), r);
  }
  return state;
}

inline gift::State128 gift128_decrypt(gift::State128 state,
                                      const Key128& key) {
  const gift::KeySchedule schedule{key, 40};
  for (unsigned r = 40; r-- > 0;) {
    state = gift128_inverse_round(state, schedule.round_key128(r), r);
  }
  return state;
}

/// PRESENT key schedule on an N-bit register held one bit per entry
/// (index 0 = LSB), as the CHES 2007 spec states it: the round key is the
/// leftmost 64 bits; then rotate left by 61, substitute the top
/// `sbox_nibbles` nibbles, and XOR the round counter into bits
/// counter_lsb + 4 .. counter_lsb.
template <std::size_t N>
std::array<std::uint64_t, 32> present_round_keys(std::array<std::uint8_t, N> k,
                                                 unsigned sbox_nibbles,
                                                 unsigned counter_lsb) {
  std::array<std::uint64_t, 32> rks{};
  for (unsigned round = 1; round <= 32; ++round) {
    for (unsigned j = 0; j < 64; ++j) {
      rks[round - 1] |= std::uint64_t{k[N - 64 + j]} << j;
    }
    std::array<std::uint8_t, N> rotated{};
    for (std::size_t j = 0; j < N; ++j) rotated[j] = k[(j + N - 61) % N];
    k = rotated;
    for (unsigned n = 0; n < sbox_nibbles; ++n) {
      const std::size_t low = N - 4 * (n + 1);
      unsigned v = 0;
      for (unsigned t = 0; t < 4; ++t) v |= unsigned{k[low + t]} << t;
      const unsigned s = gift::present_sbox().apply(v);
      for (unsigned t = 0; t < 4; ++t) {
        k[low + t] = static_cast<std::uint8_t>((s >> t) & 1u);
      }
    }
    for (unsigned t = 0; t < 5; ++t) {
      k[counter_lsb + t] ^= static_cast<std::uint8_t>((round >> t) & 1u);
    }
  }
  return rks;
}

/// PRESENT-80 round keys; the key register is the low 80 bits of `key`.
inline std::array<std::uint64_t, 32> present80_round_keys(const Key128& key) {
  std::array<std::uint8_t, 80> k{};
  for (unsigned j = 0; j < 80; ++j) {
    k[j] = static_cast<std::uint8_t>(
        j < 64 ? (key.lo >> j) & 1u : (key.hi >> (j - 64)) & 1u);
  }
  return present_round_keys(k, 1, 15);
}

inline std::array<std::uint64_t, 32> present128_round_keys(const Key128& key) {
  std::array<std::uint8_t, 128> k{};
  for (unsigned j = 0; j < 128; ++j) {
    k[j] = static_cast<std::uint8_t>(
        j < 64 ? (key.lo >> j) & 1u : (key.hi >> (j - 64)) & 1u);
  }
  return present_round_keys(k, 2, 62);
}

inline std::uint64_t present_encrypt(
    std::uint64_t state, const std::array<std::uint64_t, 32>& rks) {
  for (unsigned r = 0; r < 31; ++r) {
    state = sub_cells64(gift::present_sbox(), state ^ rks[r]);
    state = permute64(gift::present_permutation(), state);
  }
  return state ^ rks[31];
}

inline std::uint64_t present_decrypt(
    std::uint64_t state, const std::array<std::uint64_t, 32>& rks) {
  state ^= rks[31];
  for (unsigned r = 31; r-- > 0;) {
    state = permute64(gift::present_permutation(), state, true);
    state = sub_cells64(gift::present_sbox(), state, true) ^ rks[r];
  }
  return state;
}

}  // namespace grinch::oracle
