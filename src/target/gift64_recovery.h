// GRINCH attack hooks for GIFT-64, the paper's target: four stages of
// crafted-plaintext elimination recover 32 key bits each.  The mathematics
// is GiftRecovery's (target/gift_recovery.h), shared with GIFT-128.
#pragma once

#include "gift/gift64.h"
#include "target/gift_recovery.h"

namespace grinch::target {

/// A class of its own rather than an alias, so that diagnostics and
/// typed-test names spell it Gift64Recovery.
struct Gift64Recovery : GiftRecovery<gift::Gift64> {};

}  // namespace grinch::target
