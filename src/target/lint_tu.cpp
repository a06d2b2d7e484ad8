// Lint translation unit for the header-only target library.
//
// The generic attack stack (DirectProbePlatform<Traits>,
// KeyRecoveryEngine<Recovery>, FaultyObservationSource<Block>, the traits
// and recovery headers behind them) is header-only: no regular TU
// instantiates every member of every combination, so compiler warnings —
// and the static-analysis CI jobs that piggyback on compilation — never
// see the code paths a future caller would.  Explicitly instantiating the
// full cross product here forces every member function through
// -Wall/-Wextra/-Wconversion (and cppcheck/clang-tidy in CI) even though
// the object file is linked nowhere.
#include <cstdint>

#include "target/faulty_source.h"
#include "target/registry.h"
#include "target/wide_engine.h"

namespace grinch::target {

// Platforms: one per registered cipher (Recovery derives from its Traits,
// so this also instantiates the traits-facing surface).
template class DirectProbePlatform<Gift64Recovery>;
template class DirectProbePlatform<Gift128Recovery>;
template class DirectProbePlatform<Present80Recovery>;

// Recovery engines across every registered target.
template class KeyRecoveryEngine<Gift64Recovery>;
template class KeyRecoveryEngine<Gift128Recovery>;
template class KeyRecoveryEngine<Present80Recovery>;

// Fault-injection channel over both block widths in use.
template class FaultyObservationSource<std::uint64_t>;
template class FaultyObservationSource<gift::State128>;

// Wide path: the 64-lane observation core and the multi-trial engine,
// per registered cipher.
template class WideObserveCore<Gift64Recovery>;
template class WideObserveCore<Gift128Recovery>;
template class WideObserveCore<Present80Recovery>;
template class WideRecoveryEngine<Gift64Recovery>;
template class WideRecoveryEngine<Gift128Recovery>;
template class WideRecoveryEngine<Present80Recovery>;

// The pipeline entry point, per target, so its body is linted too.
template RecoveryResult<Gift64Recovery> recover_key<Gift64Recovery>(
    const Key128&, const KeyRecoveryEngine<Gift64Recovery>::Config&,
    const DirectProbePlatform<Gift64Recovery>::Config&);
template RecoveryResult<Gift128Recovery> recover_key<Gift128Recovery>(
    const Key128&, const KeyRecoveryEngine<Gift128Recovery>::Config&,
    const DirectProbePlatform<Gift128Recovery>::Config&);
template RecoveryResult<Present80Recovery> recover_key<Present80Recovery>(
    const Key128&, const KeyRecoveryEngine<Present80Recovery>::Config&,
    const DirectProbePlatform<Present80Recovery>::Config&);

}  // namespace grinch::target
