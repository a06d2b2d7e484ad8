// Countermeasure 2 (§IV-C): modify the UpdateKey operation.
//
// "Currently, the first four rounds use directly the bits of the key,
// which makes the GRINCH attack possible.  If the UpdateKey of the first
// round prepares the sub-key to be used in the next round by applying
// some computation with bits that were not used yet, the key retrieval
// would not be possible."
//
// Concrete instantiation: before extraction, each round key is whitened
// with a *non-linear* digest of the key-state half that AddRoundKey does
// not consume this round (words k4..k7, pushed through the GIFT S-Box and
// rotations).  GRINCH still recovers the 32 *effective* sub-key bits per
// round — the cache leak is unchanged — but inverting them back to master
// key bits now requires solving a non-linear system over bits the
// attacker never observes directly, defeating Step 4's reverse
// engineering.  Encryption/decryption remain a consistent keyed
// permutation (the whitening depends only on the master key).
#pragma once

#include <cstdint>
#include <vector>

#include "common/key128.h"
#include "gift/key_schedule.h"

namespace grinch::cm {

/// Non-linear 32-bit digest of the unused key-state half (k7..k4).
[[nodiscard]] std::uint32_t whitening_digest(const Key128& state);

/// Round keys of the hardened schedule: standard extraction XORed with
/// the whitening digest of the same round's unused half.
[[nodiscard]] std::vector<gift::RoundKey64> hardened_round_keys(
    const Key128& key, unsigned rounds);

/// GIFT-64 with the hardened schedule (functional reference).
class HardenedGift64 {
 public:
  [[nodiscard]] static std::uint64_t encrypt(std::uint64_t plaintext,
                                             const Key128& key);
  [[nodiscard]] static std::uint64_t decrypt(std::uint64_t ciphertext,
                                             const Key128& key);
};

}  // namespace grinch::cm
