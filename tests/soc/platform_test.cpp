#include "soc/platform.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/bits.h"
#include "common/rng.h"
#include "gift/gift64.h"

namespace grinch::soc {
namespace {

// --------------------------------------------------------- SingleCoreSoC --

TEST(SingleCore, FirstProbeRoundMatchesTableTwo) {
  Xoshiro256 rng{105};
  const Key128 key = rng.key128();
  for (const auto& [mhz, expected] :
       {std::pair{10.0, 2u}, std::pair{25.0, 4u}, std::pair{50.0, 8u}}) {
    SingleCoreSoC::Config cfg;
    cfg.rtos.clock_mhz = mhz;
    SingleCoreSoC soc{cfg, key};
    EXPECT_EQ(soc.first_probe_round(), expected) << mhz << " MHz";
  }
}

TEST(SingleCore, ObservationCoversRoundsUpToPreemption) {
  Xoshiro256 rng{106};
  const Key128 key = rng.key128();
  SingleCoreSoC::Config cfg;
  cfg.rtos.clock_mhz = 10.0;
  SingleCoreSoC soc{cfg, key};
  const target::Observation obs = soc.observe(rng.block64(), 0);
  // At 10 MHz the quantum covers one full round plus part of round 2.
  EXPECT_GE(obs.probed_after_round, 1u);
  EXPECT_LE(obs.probed_after_round, 2u);
}

TEST(SingleCore, MeasuredRoundCostIsCalibrated) {
  Xoshiro256 rng{107};
  SingleCoreSoC::Config cfg;
  SingleCoreSoC soc{cfg, rng.key128()};
  EXPECT_NEAR(soc.measured_cycles_per_round(), 65000.0, 5000.0);
}

// ----------------------------------------------------------------- MpSoc --

TEST(MpSoc, RemoteAccessIsAbout400ns) {
  Xoshiro256 rng{108};
  MpSoc soc{MpSoc::Config{}, rng.key128()};
  // Paper §IV-B3: "approximately 400 nanoseconds" for the remote shared
  // cache access (processor delay + NoC latency + cache response).
  EXPECT_GT(soc.remote_access_ns(), 100.0);
  EXPECT_LT(soc.remote_access_ns(), 800.0);
}

TEST(MpSoc, ProbeSequenceIsFasterThanARound) {
  Xoshiro256 rng{109};
  MpSoc soc{MpSoc::Config{}, rng.key128()};
  // ~1.2 ms round vs ~tens of microseconds probing: the whole probe
  // sequence fits many times into one round.
  EXPECT_LT(soc.probe_sequence_cycles(), 65000u / 4);
}

TEST(MpSoc, FirstProbeRoundIsOneAtAllClockRates) {
  Xoshiro256 rng{110};
  for (double mhz : {10.0, 25.0, 50.0}) {
    MpSoc::Config cfg;
    cfg.clock_mhz = mhz;
    MpSoc soc{cfg, rng.key128()};
    EXPECT_EQ(soc.first_probe_round(), 1u) << mhz << " MHz";
  }
}

TEST(MpSoc, ObservationIsCleanMonitoredRound) {
  Xoshiro256 rng{111};
  const Key128 key = rng.key128();
  MpSoc soc{MpSoc::Config{}, key};
  const std::uint64_t pt = rng.block64();
  const target::Observation obs = soc.observe(pt, 0);
  const auto states = gift::Gift64::round_states(pt, key);
  target::LineSet expected(16);
  for (unsigned s = 0; s < 16; ++s) expected[nibble(states[1], s)] = true;
  EXPECT_EQ(obs.present, expected);
}

TEST(MpSoc, NocTrafficIsAccounted) {
  Xoshiro256 rng{112};
  MpSoc soc{MpSoc::Config{}, rng.key128()};
  (void)soc.remote_access_cycles();
  EXPECT_GT(soc.network().stats().packets, 0u);
}

}  // namespace
}  // namespace grinch::soc
