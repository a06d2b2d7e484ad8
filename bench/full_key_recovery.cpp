// Headline-claim reproduction: "the full key could be recovered with less
// than 400 encryptions" (abstract; §IV-B1: ~100 per 32-bit round, 400 for
// the whole 128-bit key).  Runs the complete four-stage GRINCH pipeline
// against random keys on the paper-default platform and reports the
// distribution of total encryption counts.
//
// Trials shard across the thread pool with pre-derived per-trial seeds;
// the table is identical for any --threads.
#include <cstdio>

#include "bench_util.h"

using namespace grinch;

int main(int argc, char** argv) {
  bench::BenchContext ctx{argc, argv};
  const unsigned kTrials = ctx.quick() ? 5 : 25;
  ctx.set_config("trials", kTrials);
  std::printf("Headline — full 128-bit key recovery effort "
              "(paper: < 400 encryptions)\n\n");

  struct TrialOutcome {
    bool verified = false;
    std::uint64_t total_encryptions = 0;
    std::uint64_t stage_encryptions[4] = {0, 0, 0, 0};
  };

  const std::vector<runner::TrialSeed> seeds =
      runner::derive_trial_seeds(0x128BEEF, kTrials);
  runner::TrialRunner run{ctx.pool()};
  const std::vector<TrialOutcome> outcomes = run.map<TrialOutcome>(
      kTrials, [&](std::size_t t) {
        const runner::TrialSeed& ts = seeds[t];
        target::Gift64Platform platform{{}, ts.key};
        attack::GrinchConfig cfg;
        cfg.seed = ts.seed;
        attack::GrinchAttack attack{platform, cfg};
        const attack::AttackResult r = attack.run();
        TrialOutcome o;
        if (!r.success || r.recovered_key != ts.key) return o;
        o.verified = true;
        o.total_encryptions = r.total_encryptions;
        for (unsigned s = 0; s < 4; ++s)
          o.stage_encryptions[s] = r.stages[s].encryptions;
        return o;
      });

  SampleStats stats;
  SampleStats per_stage;
  unsigned verified = 0;
  unsigned under_400 = 0;
  for (unsigned t = 0; t < kTrials; ++t) {
    const TrialOutcome& o = outcomes[t];
    if (!o.verified) {
      std::printf("trial %u FAILED\n", t);
      continue;
    }
    ++verified;
    under_400 += o.total_encryptions < 400;
    stats.add(static_cast<double>(o.total_encryptions));
    for (unsigned s = 0; s < 4; ++s)
      per_stage.add(static_cast<double>(o.stage_encryptions[s]));
  }

  AsciiTable table{"Full key recovery (reproduced)"};
  table.set_header({"metric", "value", "paper"});
  table.add_row({"trials verified", std::to_string(verified) + "/" +
                                      std::to_string(kTrials),
                 "-"});
  table.add_row({"mean encryptions (128-bit key)",
                 std::to_string(static_cast<unsigned>(stats.mean())), "<400"});
  table.add_row({"min / max",
                 std::to_string(static_cast<unsigned>(stats.min())) + " / " +
                     std::to_string(static_cast<unsigned>(stats.max())),
                 "-"});
  table.add_row({"mean encryptions per 32-bit stage",
                 std::to_string(static_cast<unsigned>(per_stage.mean())),
                 "~100"});
  table.add_row({"trials under 400 encryptions",
                 std::to_string(under_400) + "/" + std::to_string(verified),
                 "all"});
  ctx.print_table(table);
  ctx.set_metric("mean_encryptions", stats.mean());
  ctx.set_metric("verified", verified);
  return ctx.finish();
}
