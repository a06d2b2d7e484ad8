// Campaign overhead (ours): orchestration must be effectively free.
//
// The campaign engine pulls trials one at a time onto one
// WideRecoveryEngine per worker and adds JSONL serialization, a flusher
// thread, running CRCs and periodic checkpoints.  The direct path
// dispatches the same grid's shards onto the pool, one engine per shard,
// with in-memory results.  This bench runs the identical trial grid both
// ways — direct in-memory shard loop vs. full campaign (results file +
// checkpoints) — and reports the wall-clock ratio; tools/check_bench.py
// flags the committed baseline if campaign mode costs more than 5% over
// direct dispatch.
//
// Deterministic metrics (compared byte-for-byte against the baseline):
// trial/shard counts, verified counts from both paths (which must agree
// — the campaign replays the exact direct results), and the CRC-32 of
// the campaign's JSONL stream, which pins every result byte across
// thread counts, interruptions and machines.  Wall-clock goes to the
// timing section only.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "campaign/engine.h"
#include "campaign/spec.h"
#include "common/crc32.h"
#include "target/wide_engine.h"

using namespace grinch;

namespace {

/// The direct path: the same ShardPlan expansion the campaign uses,
/// dispatched straight onto a pool with in-memory results.  Constructs
/// its own pool, like run_campaign does, so both paths pay the same
/// startup cost.
unsigned direct_verified(unsigned threads,
                         const campaign::CampaignSpec& spec) {
  using Recovery = target::Gift64Recovery;
  runner::ThreadPool pool{threads};
  const runner::ShardPlan plan{spec.seed, spec.fault_seed, spec.trials,
                               spec.wide_width};
  typename target::KeyRecoveryEngine<Recovery>::Config ecfg;
  ecfg.max_encryptions = spec.budget;
  ecfg.vote_threshold = spec.effective_vote_threshold();
  ecfg.faults = spec.faults();
  std::vector<unsigned> verified(plan.shard_count(), 0);
  pool.parallel_for(plan.shard_count(), [&](std::size_t i) {
    const runner::WideShard& shard = plan.shard(i);
    const auto seeds = plan.seeds(shard);
    const auto fault_seeds = plan.fault_seeds(shard);
    std::vector<target::WideTrialSpec> specs(shard.width);
    for (unsigned j = 0; j < shard.width; ++j) {
      specs[j] = {Recovery::canonical_key(seeds[j].key), seeds[j].seed,
                  fault_seeds[j]};
    }
    target::WideRecoveryEngine<Recovery> engine{ecfg, {}};
    const auto results = engine.run(specs);
    for (unsigned j = 0; j < shard.width; ++j) {
      if (results[j].success && results[j].recovered_key ==
                                    specs[j].victim_key) {
        ++verified[i];
      }
    }
  });
  unsigned total = 0;
  for (const unsigned v : verified) total += v;
  return total;
}

std::string file_bytes(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx{argc, argv};

  campaign::CampaignSpec spec;
  spec.name = "bench";
  spec.cipher = "gift64";
  spec.trials = ctx.quick() ? 192 : 384;
  spec.wide_width = 8;
  spec.budget = 20000;
  ctx.set_config("trials", spec.trials);
  ctx.set_config("wide_width", spec.wide_width);
  ctx.set_config("budget", spec.budget);
  ctx.set_config("checkpoint_every_shards", 8u);

  std::printf("Campaign orchestration overhead vs direct dispatch\n\n");

  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() / "grinch_campaign_bench";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  // Best-of-5 per path: one number per run would let a scheduler hiccup
  // masquerade as orchestration overhead.
  constexpr int kReps = 5;
  double direct_seconds = 0.0;
  double campaign_seconds = 0.0;
  unsigned verified_direct = 0;
  campaign::Outcome outcome;
  std::string results_bytes;
  for (int rep = 0; rep < kReps; ++rep) {
    const double d0 = ctx.elapsed_seconds();
    verified_direct = direct_verified(ctx.threads(), spec);
    const double d = ctx.elapsed_seconds() - d0;
    if (rep == 0 || d < direct_seconds) direct_seconds = d;

    campaign::Options opts;
    opts.results_path =
        (scratch / ("r" + std::to_string(rep) + ".jsonl")).string();
    opts.checkpoint_path = opts.results_path + ".ckpt";
    opts.threads = ctx.threads();
    opts.checkpoint_every_shards = 8;
    const double c0 = ctx.elapsed_seconds();
    outcome = campaign::run_campaign(spec, opts);
    const double c = ctx.elapsed_seconds() - c0;
    if (rep == 0 || c < campaign_seconds) campaign_seconds = c;
    if (!outcome.ok()) {
      std::fprintf(stderr, "campaign failed: %s\n", outcome.error.c_str());
      return 1;
    }
    results_bytes = file_bytes(opts.results_path);
  }
  std::filesystem::remove_all(scratch);

  const std::uint32_t results_crc = crc32(results_bytes);
  const double ratio =
      direct_seconds > 0.0 ? campaign_seconds / direct_seconds : 1.0;

  char crc_hex[16];
  std::snprintf(crc_hex, sizeof crc_hex, "%08x", results_crc);
  char ratio_s[32];
  std::snprintf(ratio_s, sizeof ratio_s, "%.3f", ratio);

  // The recorded table carries only deterministic columns; wall-clock
  // lives in the timing section (and the stdout lines below), never in
  // the determinism-compared document.
  AsciiTable table{"campaign vs direct dispatch (gift64, wide 8)"};
  table.set_header({"path", "trials", "shards", "verified"});
  const std::string shards_s = std::to_string(outcome.shard_total);
  table.add_row({"direct", std::to_string(spec.trials), shards_s,
                 std::to_string(verified_direct)});
  table.add_row({"campaign", std::to_string(spec.trials), shards_s,
                 std::to_string(outcome.counters.verified)});
  ctx.print_table(table);
  std::printf("direct   %.3fs\ncampaign %.3fs\n", direct_seconds,
              campaign_seconds);
  std::printf("orchestration overhead: %sx (budget 1.05x)\n", ratio_s);

  // Deterministic metrics: identical for any --threads value (and the
  // campaign/direct verified counts must agree — same trials, same
  // pre-derived seeds).
  ctx.set_metric("trials", spec.trials);
  ctx.set_metric("shards", static_cast<std::uint64_t>(outcome.shard_total));
  ctx.set_metric("verified_direct", verified_direct);
  ctx.set_metric("verified_campaign", outcome.counters.verified);
  ctx.set_metric("paths_agree",
                 verified_direct == outcome.counters.verified);
  ctx.set_metric("results_crc", std::string{crc_hex});
  ctx.set_metric("total_encryptions", outcome.counters.total_encryptions);
  ctx.set_timing("direct_seconds", direct_seconds);
  ctx.set_timing("campaign_seconds", campaign_seconds);

  std::printf(
      "\nReading: the campaign layer's streaming/checkpoint machinery "
      "rides on a\ndedicated flusher thread, so orchestration stays off "
      "the workers' critical\npath; the JSONL CRC pins every result byte "
      "across thread counts and resumes.\n");
  return ctx.finish();
}
