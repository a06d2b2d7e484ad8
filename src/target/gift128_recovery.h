// GRINCH attack hooks for GIFT-128 (our extension; the paper attacks
// GIFT-64).
//
// GIFT-128 is the variant actually used by GIFT-COFB and most GIFT-based
// NIST LWC candidates, so demonstrating the attack there closes the loop
// on the paper's motivation.  Everything carries over (see
// target/gift_recovery.h): the round-key pair sits one bit higher in each
// nibble than in GIFT-64, and since a round consumes 64 key bits, TWO
// stages recover the whole 128-bit key.
#pragma once

#include "gift/gift128.h"
#include "target/gift_recovery.h"

namespace grinch::target {

/// A class of its own rather than an alias, so that diagnostics and
/// typed-test names spell it Gift128Recovery.
struct Gift128Recovery : GiftRecovery<gift::Gift128> {};

}  // namespace grinch::target
