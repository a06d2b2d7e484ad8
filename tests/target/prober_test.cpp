#include "target/prober.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace grinch::target {
namespace {

cachesim::CacheConfig paper_cache() {
  return cachesim::CacheConfig::paper_default();
}

TEST(FlushReload, DetectsVictimAccesses) {
  cachesim::Cache cache{paper_cache()};
  const TableLayout layout;
  FlushReloadProber prober{cache, layout};

  prober.prepare();
  // Victim touches indices 3 and 7.
  (void)cache.access(layout.sbox_row_addr(3));
  (void)cache.access(layout.sbox_row_addr(7));

  const ProbeResult r = prober.probe();
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(r.row_present[i], i == 3 || i == 7) << "index " << i;
  }
  EXPECT_EQ(r.present_rows(), 2u);
}

TEST(FlushReload, PrepareEvictsMonitoredLines) {
  cachesim::Cache cache{paper_cache()};
  const TableLayout layout;
  for (unsigned i = 0; i < 16; ++i) (void)cache.access(layout.sbox_row_addr(i));
  FlushReloadProber prober{cache, layout};
  prober.prepare();
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_FALSE(cache.contains(layout.sbox_row_addr(i)));
  }
}

TEST(FlushReload, ProbeReportsNothingAfterPrepareAlone) {
  cachesim::Cache cache{paper_cache()};
  const TableLayout layout;
  FlushReloadProber prober{cache, layout};
  prober.prepare();
  EXPECT_EQ(prober.probe().present_rows(), 0u);
}

TEST(FlushReload, ReloadPollutesRequiringRePrepare) {
  // The probe itself loads every line (the classic Flush+Reload caveat);
  // a second probe without prepare() would see everything present.
  cachesim::Cache cache{paper_cache()};
  const TableLayout layout;
  FlushReloadProber prober{cache, layout};
  prober.prepare();
  (void)prober.probe();
  EXPECT_EQ(prober.probe().present_rows(), 16u);
  prober.prepare();
  EXPECT_EQ(prober.probe().present_rows(), 0u);
}

TEST(FlushReload, CoarseLinesGroupIndices) {
  cachesim::CacheConfig cfg = paper_cache();
  cfg.line_bytes = 4;  // 4 S-Box entries per line
  cachesim::Cache cache{cfg};
  const TableLayout layout;
  FlushReloadProber prober{cache, layout};
  prober.prepare();
  (void)cache.access(layout.sbox_row_addr(5));  // line covering 4..7

  const ProbeResult r = prober.probe();
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(r.row_present[i], i >= 4 && i <= 7) << "index " << i;
  }
}

TEST(FlushReload, TimedCyclesAreCharged) {
  cachesim::Cache cache{paper_cache()};
  const TableLayout layout;
  FlushReloadProber prober{cache, layout};
  prober.prepare();
  const ProbeResult r = prober.probe();
  // All 16 reloads missed: cycles = 16 * miss latency.
  EXPECT_EQ(r.cycles, 16 * cache.config().miss_latency);
}

TEST(PrimeProbe, DetectsVictimSets) {
  cachesim::Cache cache{paper_cache()};
  const TableLayout layout;
  PrimeProbeProber prober{cache, layout};

  prober.prepare();
  (void)cache.access(layout.sbox_row_addr(9));

  const ProbeResult r = prober.probe();
  EXPECT_TRUE(r.row_present[9]);
}

TEST(PrimeProbe, QuietVictimLeavesPrimedSetsIntact) {
  cachesim::Cache cache{paper_cache()};
  const TableLayout layout;
  PrimeProbeProber prober{cache, layout};
  prober.prepare();
  const ProbeResult r = prober.probe();
  EXPECT_EQ(r.present_rows(), 0u);
}

TEST(PrimeProbe, AliasingAccessCausesFalsePositive) {
  // Any victim access mapping to a monitored set triggers Prime+Probe —
  // the set-granularity noise that makes the paper prefer Flush+Reload.
  cachesim::Cache cache{paper_cache()};
  const TableLayout layout;
  PrimeProbeProber prober{cache, layout};
  prober.prepare();
  // An address unrelated to the S-Box but in the same set as row 2
  // (stride = line_bytes * num_sets = 64).
  (void)cache.access(layout.sbox_row_addr(2) + 64 * 131);
  const ProbeResult r = prober.probe();
  EXPECT_TRUE(r.row_present[2]);
}

TEST(PrimeProbe, NamesAreDistinct) {
  cachesim::Cache cache{paper_cache()};
  const TableLayout layout;
  FlushReloadProber fr{cache, layout};
  PrimeProbeProber pp{cache, layout};
  EXPECT_STRNE(fr.name(), pp.name());
}

}  // namespace
}  // namespace grinch::target
