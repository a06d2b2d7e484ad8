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
#include "soc/platform.h"
#include "target/gift64_recovery.h"
#include "target/platform.h"
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
  soc::DirectProbePlatform platform{soc::DirectProbePlatform::Config{},
                                    rng.key128()};
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
  // Multi-trial recovery throughput: 64 independent GIFT-64 trials,
  // sharded into lockstep groups of `range(0)` lanes through the
  // WideRecoveryEngine (width 1 = the scalar trial loop's work, one lane
  // per group).  items_per_second is recovered keys per second;
  // tools/check_bench.py asserts per-trial time at width 64 stays within
  // 1/0.75 of width 1 (>= 0.75x linear scaling).
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
    soc::DirectProbePlatform platform{soc::DirectProbePlatform::Config{},
                                      key};
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
