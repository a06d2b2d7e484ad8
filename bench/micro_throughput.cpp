// Microbenchmarks (google-benchmark): raw throughput of the ciphers, the
// leaky table implementation, the cache simulator, the NoC model and one
// full monitored-encryption observation.  These are sanity/engineering
// numbers, not paper results.
//
// Flags: the shared bench flags map onto google-benchmark's —
//   --quick      -> --benchmark_min_time=0.05
//   --json PATH  -> --benchmark_out=PATH --benchmark_out_format=json
//   --threads N  -> accepted for interface uniformity; microbenchmarks
//                   are inherently single-threaded measurements.
// Unrecognized arguments pass through to google-benchmark verbatim.
#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "attack/grinch.h"
#include "bench_util.h"
#include "cachesim/cache.h"
#include "common/rng.h"
#include "gift/bitslice.h"
#include "gift/gift128.h"
#include "gift/gift64.h"
#include "gift/table_gift.h"
#include "noc/network.h"
#include "present/present.h"
#include "runner/trial_runner.h"
#include "target/gift128_recovery.h"
#include "target/gift64_recovery.h"
#include "target/platform.h"
#include "target/present80_recovery.h"
#include "target/registry.h"
#include "target/wide_engine.h"
#include "target/wide_observe.h"

using namespace grinch;

namespace {

void BM_Gift64Encrypt(benchmark::State& state) {
  Xoshiro256 rng{1};
  const Key128 key = rng.key128();
  std::uint64_t pt = rng.block64();
  for (auto _ : state) {
    pt = gift::Gift64::encrypt(pt, key);
    benchmark::DoNotOptimize(pt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Gift64Encrypt);

void BM_Gift64Decrypt(benchmark::State& state) {
  Xoshiro256 rng{2};
  const Key128 key = rng.key128();
  std::uint64_t ct = rng.block64();
  for (auto _ : state) {
    ct = gift::Gift64::decrypt(ct, key);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_Gift64Decrypt);

void BM_Gift128Encrypt(benchmark::State& state) {
  Xoshiro256 rng{3};
  const Key128 key = rng.key128();
  gift::State128 pt{rng.block64(), rng.block64()};
  for (auto _ : state) {
    pt = gift::Gift128::encrypt(pt, key);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_Gift128Encrypt);

void BM_Present80Encrypt(benchmark::State& state) {
  Xoshiro256 rng{4};
  Key128 key = rng.key128();
  key.hi &= 0xFFFF;
  std::uint64_t pt = rng.block64();
  for (auto _ : state) {
    pt = present::Present80::encrypt(pt, key);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_Present80Encrypt);

void BM_Present80KeySearch(benchmark::State& state) {
  // One Present80Recovery::finalize on a key whose low 16 bits are 0xFFFF:
  // the full 2^16 search over the key bits the cache never sees.
  // items_per_second is candidate keys per second.
  Xoshiro256 rng{46};
  Key128 key = target::Present80Recovery::canonical_key(rng.key128());
  key.lo |= 0xFFFF;
  const std::uint64_t pt = rng.block64();
  const std::uint64_t ct = present::Present80::encrypt(pt, key);
  target::DirectProbePlatform<target::Present80Recovery> platform{{}, key};
  for (auto _ : state) {
    target::RecoveryResult<target::Present80Recovery> r;
    r.stage_keys = {(key.hi << 48) | (key.lo >> 16)};
    target::Present80Recovery::finalize(r, platform, rng, pt, ct);
    if (r.recovered_key != key) state.SkipWithError("search failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          std::int64_t{1 << 16});
}
BENCHMARK(BM_Present80KeySearch)->Unit(benchmark::kMillisecond);

void BM_BitslicedGift64Encrypt(benchmark::State& state) {
  Xoshiro256 rng{45};
  const Key128 key = rng.key128();
  const gift::BitslicedGift64 cipher;
  std::uint64_t pt = rng.block64();
  for (auto _ : state) {
    pt = cipher.encrypt(pt, key);
    benchmark::DoNotOptimize(pt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BitslicedGift64Encrypt);

void BM_TableGift64Instrumented(benchmark::State& state) {
  Xoshiro256 rng{5};
  const Key128 key = rng.key128();
  const gift::TableGift64 cipher;
  gift::VectorTraceSink sink;
  std::uint64_t pt = rng.block64();
  for (auto _ : state) {
    sink.clear();
    pt = cipher.encrypt(pt, key, &sink);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_TableGift64Instrumented);

/// The attacker's work per monitored encryption at stage range(0): one
/// Crafter::craft (Algorithm 2, pulled back through the recovered rounds)
/// and one pre_key_nibbles (the predicted pre-key state), cycling the
/// target segment.  The recovered round keys are random.
template <typename Recovery>
void craft_and_predict(benchmark::State& state) {
  const auto stage = static_cast<unsigned>(state.range(0));
  Xoshiro256 rng{0xC4AF7 + stage};
  std::vector<typename Recovery::StageKey> recovered(stage);
  for (auto& rk : recovered) {
    const std::uint64_t w = rng.next();
    rk.u = static_cast<decltype(rk.u)>(w);
    rk.v = static_cast<decltype(rk.v)>(w >> 32);
  }
  typename Recovery::Crafter crafter{rng};
  unsigned segment = 0;
  for (auto _ : state) {
    const auto pt = crafter.craft(segment, recovered, stage);
    benchmark::DoNotOptimize(Recovery::pre_key_nibbles(pt, recovered, stage));
    segment = (segment + 1) % Recovery::kSegments;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Gift64Craft(benchmark::State& state) {
  craft_and_predict<target::Gift64Recovery>(state);
}
BENCHMARK(BM_Gift64Craft)->DenseRange(0, 3);

void BM_Gift128Craft(benchmark::State& state) {
  craft_and_predict<target::Gift128Recovery>(state);
}
BENCHMARK(BM_Gift128Craft)->DenseRange(0, 1);

void BM_CacheAccess(benchmark::State& state) {
  cachesim::Cache cache{cachesim::CacheConfig::paper_default()};
  Xoshiro256 rng{6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.uniform(1 << 16)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void BM_NocSend(benchmark::State& state) {
  const noc::MeshTopology mesh{3, 3};
  noc::Network net{mesh, noc::LinkTiming{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.send(0, 8, 8));
  }
}
BENCHMARK(BM_NocSend);

void BM_ObserveOneEncryption(benchmark::State& state) {
  Xoshiro256 rng{7};
  target::Gift64Platform platform{{}, rng.key128()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(platform.observe(rng.block64(), 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObserveOneEncryption);

void BM_ObserveBatch(benchmark::State& state) {
  // The engine's hot path: one observe_batch call over `range(0)`
  // plaintexts on the generic target platform (partial-round victim,
  // zero-allocation LineSet observations, hoisted probe window).
  // items_per_second is observations per second; compare its inverse
  // against baseline_direct_observe_ns for the per-observation speedup.
  // Width 64 runs the same work through the wide path instead — one
  // WideObserveCore::run of 64 jobs on one key's schedule at stage 0
  // (target/wide_observe.h) — so /64 vs /16 is the wide-path speedup
  // (tools/check_bench.py asserts wide <= scalar per observation).
  using Core = target::WideObserveCore<target::Gift64Recovery>;
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const bool wide = batch > 16;
  Xoshiro256 rng{9};
  const Key128 key = rng.key128();
  const target::DirectProbePlatform<target::Gift64Recovery>::Config config;
  target::DirectProbePlatform<target::Gift64Recovery> platform{config, key};
  std::vector<std::uint64_t> pts(batch);
  target::ObservationBatch out;
  Core core{config.cache, config.layout};
  const target::Gift64Recovery::TableCipher cipher{config.layout};
  const Core::Schedule schedule = cipher.make_schedule(key);
  const target::ProbeWindow window =
      target::probe_window_for<target::Gift64Recovery>(0,
                                                       config.probing_round);
  std::vector<Core::Job> jobs(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    jobs[i] = {&schedule, 0, window, window.monitored_from,
               static_cast<unsigned>(i)};
  }
  target::WideObservationBatch wide_out;
  std::vector<std::uint64_t> states(batch);
  for (auto _ : state) {
    for (std::uint64_t& p : pts) p = rng.block64();
    if (wide) {
      for (std::size_t i = 0; i < batch; ++i) jobs[i].plaintext = pts[i];
      core.run(jobs, wide_out, states.data());
      benchmark::DoNotOptimize(wide_out.present_word(0));
    } else {
      platform.observe_batch(pts, 0, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ObserveBatch)->Arg(1)->Arg(16)->Arg(64);

void BM_WideRecovery(benchmark::State& state) {
  // Multi-trial recovery throughput: 64 independent GIFT-64 trials on
  // one WideRecoveryEngine, handed over in run() calls of `range(0)`
  // trials each.  The engine runs trials one after another, so the width
  // changes only the call count, as a campaign's wide_width changes only
  // its shard size.  items_per_second is recovered keys per second;
  // tools/check_bench.py asserts per-trial time at width 64 stays within
  // 1/0.75 of width 1.
  const unsigned width = static_cast<unsigned>(state.range(0));
  constexpr std::size_t kTrials = 64;
  const auto seeds = runner::derive_trial_seeds(0x71D3, kTrials);
  std::vector<target::WideTrialSpec> specs(kTrials);
  for (std::size_t t = 0; t < kTrials; ++t) {
    specs[t] = {seeds[t].key, seeds[t].seed, 0};
  }
  const auto shards = runner::make_wide_shards(kTrials, width);
  for (auto _ : state) {
    target::WideRecoveryEngine<target::Gift64Recovery> engine{{}};
    std::size_t recovered = 0;
    for (const runner::WideShard& shard : shards) {
      const auto results = engine.run(
          std::span<const target::WideTrialSpec>(specs).subspan(shard.begin,
                                                                shard.width));
      for (const auto& r : results) recovered += r.success ? 1 : 0;
    }
    if (recovered != kTrials) state.SkipWithError("recovery failed");
    benchmark::DoNotOptimize(recovered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTrials));
}
BENCHMARK(BM_WideRecovery)->Arg(1)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_FullFirstRoundAttack(benchmark::State& state) {
  Xoshiro256 rng{8};
  for (auto _ : state) {
    const Key128 key = rng.key128();
    target::Gift64Platform platform{{}, key};
    attack::GrinchConfig cfg;
    cfg.stages = 1;
    cfg.seed = rng.next();
    attack::GrinchAttack attack{platform, cfg};
    benchmark::DoNotOptimize(attack.run());
  }
}
BENCHMARK(BM_FullFirstRoundAttack)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx{argc, argv, /*allow_unknown=*/true};
  std::vector<std::string> args{argc > 0 ? argv[0] : "micro_throughput"};
  if (ctx.quick()) args.emplace_back("--benchmark_min_time=0.05");
  if (!ctx.json_path().empty()) {
    args.push_back("--benchmark_out=" + ctx.json_path());
    args.emplace_back("--benchmark_out_format=json");
  }
  for (const std::string& a : ctx.passthrough_args()) args.push_back(a);

  std::vector<char*> bargv;
  bargv.reserve(args.size());
  for (std::string& a : args) bargv.push_back(a.data());
  int bargc = static_cast<int>(bargv.size());
  benchmark::Initialize(&bargc, bargv.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, bargv.data())) return 1;
  // Pre-overhaul reference numbers (virtual-dispatch cache, per-encryption
  // heap traffic) so the JSON trajectory carries its own baseline.
  benchmark::AddCustomContext("baseline_cache_access_ns", "86.7");
  benchmark::AddCustomContext("baseline_table_gift64_instrumented_ns", "8729");
  benchmark::AddCustomContext("baseline_observe_one_encryption_ns", "14958");
  // Pre-partial-round reference (full 28-round victim per observation,
  // eager ciphertext): the batched-pipeline speedup is measured against it.
  benchmark::AddCustomContext("baseline_direct_observe_ns", "6312.3");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
