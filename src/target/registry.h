// The registered targets of the generic attack pipeline.
//
// One list names every cipher the repo can attack through the unified
// DirectProbePlatform<Traits> + KeyRecoveryEngine<Recovery> pair.  The
// cross-cipher conformance suite (tests/target/conformance_test.cpp)
// iterates it, as do examples; porting a new table cipher means writing
// its traits/recovery header (see docs/TARGETS.md) and adding it here.
#pragma once

#include <tuple>
#include <utility>

#include "common/key128.h"
#include "target/gift128_recovery.h"
#include "target/gift64_recovery.h"
#include "target/platform.h"
#include "target/present80_recovery.h"
#include "target/recovery_engine.h"
#include "target/wide_observe.h"

namespace grinch::target {

/// Every registered target, as the Recovery type driving the pipeline.
using RegisteredRecoveries =
    std::tuple<Gift64Recovery, Gift128Recovery, Present80Recovery>;

/// The paper's direct-probe platform: GIFT-64, with every probe option
/// (GrinchAttack, the paper benches and `grinch attack` run on it).
using Gift64Platform = DirectProbePlatform<Gift64Recovery>;

/// Calls `fn(Recovery{})` once per registered target.
template <typename Fn>
void for_each_registered_target(Fn&& fn) {
  std::apply([&](auto... recovery) { (fn(recovery), ...); },
             RegisteredRecoveries{});
}

/// Runs the whole pipeline against one target: generic direct-probe
/// platform (driven through the unified ObservationSource interface),
/// generic elimination engine, recovery result.  `victim_key` is
/// canonicalised to the cipher's key space first.  Speculative batching
/// runs only where discarded encryptions cannot alter later
/// observations (LRU without a prefetcher, WideObserveCore::supported);
/// every other cache runs at max_batch = 1.
template <typename Recovery>
[[nodiscard]] RecoveryResult<Recovery> recover_key(
    const Key128& victim_key,
    const typename KeyRecoveryEngine<Recovery>::Config& engine_config = {},
    const typename DirectProbePlatform<Recovery>::Config& platform_config =
        {}) {
  DirectProbePlatform<Recovery> platform{platform_config,
                                         Recovery::canonical_key(victim_key)};
  ObservationSource<typename Recovery::Block>& source = platform;
  typename KeyRecoveryEngine<Recovery>::Config config = engine_config;
  if (!WideObserveCore<Recovery>::supported(platform_config.cache)) {
    config.max_batch = 1;
  }
  KeyRecoveryEngine<Recovery> engine{source, config};
  return engine.run();
}

}  // namespace grinch::target
