// GRINCH attack hooks for GIFT-64 on the generic pipeline.
//
// The paper's full five-step attack with its noise machinery (voting,
// cross-round solving, statistical elimination, precision probing) lives
// in attack::GrinchAttack and is unchanged; this adapter exposes the
// clean-channel core of the same mathematics (Algorithms 1-2, the pre-key
// predictor, Step-4 key assembly) through the trait contract, so GIFT-64
// runs on the identical engine as GIFT-128 and PRESENT-80.
//
// Header-only on purpose: it borrows the Algorithm 1/2 implementations
// from src/attack/, which sits *above* the target layer — any translation
// unit using Gift64Recovery must link grinch_attack (the target library
// itself never includes this header).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "attack/key_recovery.h"
#include "attack/plaintext_crafter.h"
#include "attack/predictor.h"
#include "attack/target_bits.h"
#include "common/key128.h"
#include "common/rng.h"
#include "gift/key_schedule.h"
#include "target/candidate_mask.h"
#include "target/gift64_traits.h"
#include "target/observation.h"
#include "target/recovery_engine.h"

namespace grinch::target {

/// Attack hooks driving KeyRecoveryEngine<Gift64Recovery>: four stages of
/// crafted-plaintext elimination recover 32 key bits each.
struct Gift64Recovery : Gift64Traits {
  using StageKey = gift::RoundKey64;

  static constexpr unsigned kStages = 4;
  static constexpr unsigned kCandidatesPerSegment = 4;
  static constexpr bool kUpdateAllSegments = false;
  static constexpr std::uint64_t kDefaultSeed = 0x64A11C;

  class Crafter {
   public:
    explicit Crafter(Xoshiro256& rng) : inner_(rng) {}
    [[nodiscard]] std::uint64_t craft(
        unsigned segment, const std::vector<gift::RoundKey64>& recovered,
        unsigned stage) {
      return inner_.craft_plaintext(attack::kTargetBits[segment], recovered,
                                    stage);
    }

   private:
    attack::PlaintextCrafter inner_;
  };

  static std::array<unsigned, 16> pre_key_nibbles(
      std::uint64_t plaintext,
      const std::vector<gift::RoundKey64>& known_round_keys, unsigned stage) {
    return attack::pre_key_nibbles(plaintext, known_round_keys, stage);
  }

  /// index = n XOR c: the key pair (u, v) lands on nibble bits 0..1.
  static unsigned candidate_index(unsigned nibble, unsigned c) noexcept {
    return (nibble ^ c) & 0xF;
  }

  static gift::RoundKey64 stage_key_from(
      const std::array<CandidateMask<4>, 16>& masks) {
    gift::RoundKey64 rk{};
    for (unsigned s = 0; s < 16; ++s) {
      const unsigned c = masks[s].value();
      rk.u |= static_cast<std::uint16_t>(((c >> 1) & 1u) << s);
      rk.v |= static_cast<std::uint16_t>((c & 1u) << s);
    }
    return rk;
  }

  /// Residual-finisher verification hook (src/finisher/finisher.h):
  /// assembles a candidate's master key and checks it against every
  /// known plaintext/ciphertext pair with the reference cipher.
  static bool finisher_verify(std::span<const gift::RoundKey64> stage_keys,
                              std::span<const std::uint64_t> pts,
                              std::span<const std::uint64_t> cts,
                              Key128& key_out,
                              std::uint64_t& offline_trials) {
    const Key128 key = attack::assemble_master_key(stage_keys);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      ++offline_trials;
      if (reference_encrypt(pts[i], key) != cts[i]) return false;
    }
    key_out = key;
    return true;
  }

  /// Assembles the master key (Step 4, via the symbolic key schedule) and
  /// verifies it against one more observed encryption.
  static void finalize(RecoveryResult<Gift64Recovery>& result,
                       ObservationSource<std::uint64_t>& source,
                       Xoshiro256& rng, std::uint64_t /*last_pt*/,
                       std::uint64_t /*last_ct*/) {
    result.recovered_key = attack::assemble_master_key(result.stage_keys);
    const std::uint64_t check_pt = rng.block64();
    (void)source.observe(check_pt, 0);
    ++result.total_encryptions;
    result.key_verified =
        reference_encrypt(check_pt, result.recovered_key) ==
        source.last_ciphertext();
    result.success = result.key_verified;
  }
};

}  // namespace grinch::target
