// Table II reproduction: attack efficiency (earliest successfully probed
// round) of the practical attacks on the two FPGA platforms.
//
//   paper:  Platform               10 MHz  25 MHz  50 MHz
//           Single-processing SoC     2       4       8
//           Multi-processing SoC      1       1       1
//
// Mechanism: on the single-core SoC the attacker only runs when the RTOS
// (10 ms quantum) schedules it, so the probe lands deeper into the cipher
// the faster the clock; on the MPSoC the attacker owns a tile and probes
// through the NoC (~400 ns per remote access), far faster than a round.
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "soc/platform.h"

using namespace grinch;

int main(int argc, char** argv) {
  bench::BenchContext ctx{argc, argv};
  std::printf("Table II — attack efficiency (probed round) on both "
              "platforms\n");
  std::printf("paper reference: SoC 2/4/8, MPSoC 1/1/1 at 10/25/50 MHz\n\n");

  Xoshiro256 rng{0x7AB1E2};
  const Key128 key = rng.key128();
  ctx.set_config("seed", std::uint64_t{0x7AB1E2});

  AsciiTable table{"Table II (reproduced)"};
  table.set_header({"Platform", "10 MHz", "25 MHz", "50 MHz"});

  std::vector<std::string> soc_row{"Single-processing SoC"};
  std::vector<std::string> mpsoc_row{"Multi-processing SoC"};
  for (double mhz : {10.0, 25.0, 50.0}) {
    soc::SingleCoreSoC::Config scfg;
    scfg.rtos.clock_mhz = mhz;
    soc::SingleCoreSoC single{scfg, key};
    soc_row.push_back(std::to_string(single.first_probe_round()));

    soc::MpSoc::Config mcfg;
    mcfg.clock_mhz = mhz;
    soc::MpSoc mpsoc{mcfg, key};
    mpsoc_row.push_back(std::to_string(mpsoc.first_probe_round()));
  }
  table.add_row(soc_row);
  table.add_row(mpsoc_row);
  ctx.print_table(table);

  // Supporting measurements quoted in §IV-B3.
  soc::MpSoc::Config mcfg;
  soc::MpSoc mpsoc{mcfg, key};
  soc::SingleCoreSoC::Config scfg;
  soc::SingleCoreSoC single{scfg, key};
  const double cpr = single.measured_cycles_per_round();
  const double round_ms = cpr / 50e6 * 1e3;
  std::printf("victim round time at 50 MHz: %.2f ms (paper: ~1.2 ms)\n",
              round_ms);
  std::printf("remote shared-cache access via NoC: %.0f ns (paper: ~400 ns)\n",
              mpsoc.remote_access_ns());
  ctx.set_metric("victim_round_ms_50mhz", round_ms);
  ctx.set_metric("remote_access_ns", mpsoc.remote_access_ns());
  return ctx.finish();
}
