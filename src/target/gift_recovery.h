// GRINCH attack hooks for GIFT on the generic pipeline: one template for
// both block widths.
//
// The clean-channel core of the paper's mathematics — Algorithm 1 (target
// bits), Algorithm 2 (crafted plaintexts) with its Step-5 inversion, the
// pre-key predictor and the Step-4 key assembly — is the same at either
// width, because GIFT-64 and GIFT-128 share the S-Box, the shape of
// PermBits, the key schedule and the post-S-Box key addition:
//
//  * round 0 is key-free, so the attacker knows the full pre-key state of
//    the first monitored round, and the recovered round keys extend that
//    to every later stage;
//  * segment s receives two round-key bits, V_s on state bit
//    4s + kKeyBitOffset and U_s on the bit above it (GIFT-64: nibble bits
//    0/1; GIFT-128: bits 1/2);
//  * PermBits preserves i mod 4, so the pinned source bits are always the
//    same output bits of two distinct S-Boxes;
//  * round constants touch only bit-3 positions, never key-facing bits;
//  * GIFT-64 consumes 32 key bits per round and GIFT-128 64, so four or
//    two stages recover the whole 128-bit key.
//
// The candidate encoding is c = (u << 1) | v with index
// n XOR (c << kKeyBitOffset), so a segment's surviving candidate is its
// key pair; on a crafted plaintext that is the paper's rule
// Key[i] <- NOT Index[a] (tests/target/gift_recovery_test.cpp checks the
// equivalence).  GiftWidth holds everything that differs between the
// widths.  attack::GrinchAttack, the paper's GIFT-64 pipeline with its
// noise machinery, runs on the GIFT-64 instantiation's kernels.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/key128.h"
#include "common/rng.h"
#include "gift/key_schedule.h"
#include "gift/permutation.h"
#include "gift/sbox.h"
#include "target/candidate_mask.h"
#include "target/gift128_traits.h"
#include "target/gift64_traits.h"
#include "target/observation.h"
#include "target/recovery_engine.h"

namespace grinch::target {

/// What sets one GIFT width apart for the attack.
template <typename Gift>
struct GiftWidth;

template <>
struct GiftWidth<gift::Gift64> {
  using Traits = Gift64Traits;
  /// V_s lands on state bit 4s + kKeyBitOffset, U_s on the bit above.
  static constexpr unsigned kKeyBitOffset = 0;
  /// Key-state bit holding U_0 (V_i is always key-state bit i).
  static constexpr unsigned kUStateBit = 16;
  static constexpr std::uint64_t kDefaultSeed = 0x64A11C;
};

template <>
struct GiftWidth<gift::Gift128> {
  using Traits = Gift128Traits;
  static constexpr unsigned kKeyBitOffset = 1;
  static constexpr unsigned kUStateBit = 64;
  static constexpr std::uint64_t kDefaultSeed = 0x128A77;
};

/// Attack hooks driving KeyRecoveryEngine over GIFT-64 or GIFT-128: each
/// stage's crafted-plaintext elimination recovers one round key, two bits
/// per segment.
template <typename Gift>
struct GiftRecovery : GiftWidth<Gift>::Traits {
  using Width = GiftWidth<Gift>;
  using Traits = typename Width::Traits;
  using Cipher = Gift;
  using Block = typename Traits::Block;
  using StageKey = typename Gift::RoundKey;

  static constexpr unsigned kSegments = Traits::kSegments;
  static constexpr unsigned kStages = 128 / (2 * kSegments);
  static constexpr unsigned kCandidatesPerSegment = 4;
  static constexpr bool kUpdateAllSegments = false;
  static constexpr std::uint64_t kDefaultSeed = Width::kDefaultSeed;

  /// Algorithm 1's output for one target segment s.
  struct TargetBits {
    /// Positions in the S-Box-layer output of the round feeding the
    /// monitored one that PermBits moves onto V_s's / U_s's bit.
    unsigned bit_a = 0;
    unsigned bit_b = 0;
    /// The segments whose S-Boxes produce bit_a / bit_b.
    unsigned seg_a = 0;
    unsigned seg_b = 0;
    /// S-Box inputs whose output has a 1 at bit (bit_a % 4) /
    /// (bit_b % 4), ascending: 8 each, since every GS output bit is
    /// balanced.
    std::array<std::uint8_t, 8> list_a{};
    std::array<std::uint8_t, 8> list_b{};
  };

  /// Algorithm 1 for every segment, built at compile time: walk PermBits
  /// back from the key-facing bits, then list the S-Box inputs forcing
  /// each source bit to 1.
  static constexpr std::array<TargetBits, kSegments> kTargetBits = [] {
    std::array<TargetBits, kSegments> targets{};
    for (unsigned s = 0; s < kSegments; ++s) {
      TargetBits& t = targets[s];
      const unsigned v_bit = 4 * s + Width::kKeyBitOffset;
      t.bit_a = gift::kGiftPInverse<4 * kSegments>[v_bit];
      t.bit_b = gift::kGiftPInverse<4 * kSegments>[v_bit + 1];
      t.seg_a = t.bit_a / 4;
      t.seg_b = t.bit_b / 4;
      t.list_a = gift::kGiftInputsWithOutputBit[t.bit_a % 4];
      t.list_b = gift::kGiftInputsWithOutputBit[t.bit_b % 4];
    }
    return targets;
  }();

  /// Algorithm 2 and Step 5: crafts the input of the round feeding the
  /// monitored one, with the target segment's source segments drawn from
  /// the Algorithm 1 lists and every other segment at random, then pulls
  /// it back to a plaintext through the recovered round keys.
  class Crafter {
   public:
    explicit Crafter(Xoshiro256& rng) : rng_(&rng) {}

    [[nodiscard]] Block craft(unsigned segment,
                              const std::vector<StageKey>& recovered,
                              unsigned stage) {
      assert(recovered.size() >= stage);
      Block state = draw_state(kTargetBits[segment]);
      for (unsigned r = stage; r-- > 0;) {
        state = Gift::inverse_round_function(state, recovered[r], r);
      }
      return state;
    }

   private:
    /// One draw per segment from a register copy of the generator, written
    /// back once, one 64-bit word at a time.  A list pick is uniform(8),
    /// which on a power-of-two bound is the draw's low 3 bits, and a free
    /// segment is its low nibble, so the stream is the one uniform() and
    /// nibble() would consume.
    Block draw_state(const TargetBits& t) {
      Xoshiro256 rng = *rng_;
      std::array<std::uint64_t, kSegments / 16> words{};
      for (unsigned w = 0; w < words.size(); ++w) {
        std::uint64_t word = 0;
        for (unsigned i = 0; i < 16; ++i) {
          const unsigned s = 16 * w + i;
          const std::uint64_t draw = rng.next();
          const std::uint64_t value = s == t.seg_a   ? t.list_a[draw & 7]
                                      : s == t.seg_b ? t.list_b[draw & 7]
                                                     : draw & 0xF;
          word |= value << (4 * i);
        }
        words[w] = word;
      }
      *rng_ = rng;
      return Traits::block_from_words(words.front(), words.back());
    }

    Xoshiro256* rng_;
  };

  /// The pre-key nibbles n_s of the monitored round: round `stage` + 1's
  /// S-Box indices minus the unknown key bits.  Needs the exact round keys
  /// 0..stage-1.  A zero round key makes AddRoundKey the identity, so a
  /// full round with it yields the pre-key state, constants included.
  static std::array<unsigned, kSegments> pre_key_nibbles(
      Block plaintext, const std::vector<StageKey>& known_round_keys,
      unsigned stage) {
    assert(known_round_keys.size() >= stage);
    Block state = plaintext;
    for (unsigned r = 0; r < stage; ++r) {
      state = Gift::round_function(state, known_round_keys[r], r);
    }
    state = Gift::round_function(state, StageKey{}, stage);
    std::array<unsigned, kSegments> out{};
    for (unsigned s = 0; s < kSegments; ++s) {
      if constexpr (std::is_same_v<Block, std::uint64_t>) {
        out[s] = nibble(state, s);
      } else {
        out[s] = state.nibble(s);
      }
    }
    return out;
  }

  /// index = n XOR (c << kKeyBitOffset): the key pair (u, v) sits on the
  /// segment's key-facing bits.
  static unsigned candidate_index(unsigned nibble, unsigned c) noexcept {
    return (nibble ^ (c << Width::kKeyBitOffset)) & 0xF;
  }

  static StageKey stage_key_from(
      const std::array<CandidateMask<4>, kSegments>& masks) {
    using Word = decltype(StageKey::u);
    StageKey rk{};
    for (unsigned s = 0; s < kSegments; ++s) {
      const unsigned c = masks[s].value();
      rk.u |= static_cast<Word>(((c >> 1) & 1u) << s);
      rk.v |= static_cast<Word>((c & 1u) << s);
    }
    return rk;
  }

  /// Step 4: the key schedule only moves bits, so every recovered
  /// round-key bit is one master-key bit.  round_keys[a] is the round key
  /// of 0-based round a; all kStages are needed.
  static Key128 assemble_master_key(std::span<const StageKey> round_keys) {
    static constexpr auto kOrigins = gift::key_bit_origins<kStages>();
    assert(round_keys.size() == kStages);
    Key128 key;
    for (unsigned a = 0; a < kStages; ++a) {
      const unsigned u = round_keys[a].u;
      const unsigned v = round_keys[a].v;
      for (unsigned i = 0; i < kSegments; ++i) {
        key = key.with_bit(kOrigins[a][Width::kUStateBit + i], (u >> i) & 1u);
        key = key.with_bit(kOrigins[a][i], (v >> i) & 1u);
      }
    }
    return key;
  }

  /// Residual-finisher verification hook (src/finisher/finisher.h):
  /// assembles a candidate's master key and checks it against every
  /// known plaintext/ciphertext pair with the reference cipher.
  static bool finisher_verify(std::span<const StageKey> stage_keys,
                              std::span<const Block> pts,
                              std::span<const Block> cts, Key128& key_out,
                              std::uint64_t& offline_trials) {
    const Key128 key = assemble_master_key(stage_keys);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      ++offline_trials;
      if (!(Traits::reference_encrypt(pts[i], key) == cts[i])) return false;
    }
    key_out = key;
    return true;
  }

  /// Assembles the master key and verifies it against one more observed
  /// encryption's full ciphertext.
  template <typename Recovery>
  static void finalize(RecoveryResult<Recovery>& result,
                       ObservationSource<Block>& source, Xoshiro256& rng,
                       Block /*last_pt*/, std::uint64_t /*last_ct*/) {
    result.recovered_key = assemble_master_key(result.stage_keys);
    const Block check_pt = Traits::random_block(rng);
    (void)source.observe(check_pt, 0);
    ++result.total_encryptions;
    result.key_verified =
        Traits::reference_encrypt(check_pt, result.recovered_key) ==
        source.last_ciphertext();
    result.success = result.key_verified;
  }
};

}  // namespace grinch::target
