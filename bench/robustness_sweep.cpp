// Robustness sweep (ours): key recovery through a faulty probe channel.
//
// The paper's clean-channel numbers (Table I/II) assume every observation
// is trustworthy; its MPSoC deployment clearly is not — co-tenant traffic
// evicts monitored lines, prefetchers fake presences, and scheduling
// makes the attacker miss or mistime windows.  This bench quantifies what
// that costs: for every registered cipher it sweeps the channel fault
// vocabulary (target/fault_model.h) — each single fault type, a
// false-absent rate ramp, and the documented mixed profiles — and reports
// success probability, encryption cost, and the engine's robustness
// accounting (noise restarts, dropped observations, verify restarts).
//
// The saturating row exercises the partial-result contract
// (docs/ROBUSTNESS.md): a hardened vote threshold, a small budget, and the
// harness checking that the surviving candidate masks still contain the
// ground-truth candidates — the honest "here is what the channel still
// owes you" degradation mode.
//
// Trials shard across the thread pool with pre-derived per-trial seeds, so
// every table and metric is byte-identical for any --threads value.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gift/key_schedule.h"

using namespace grinch;

namespace {

/// One sweep row: a named fault profile plus the engine knobs documented
/// for it (docs/ROBUSTNESS.md).
struct ProfileSpec {
  std::string label;
  target::FaultProfile faults;
  unsigned vote_threshold = 2;  ///< Config::noisy_defaults for fault rows
  std::uint64_t budget = 800000;
  bool finish = false;  ///< arm the residual finisher on partials
  std::uint64_t finish_budget = 0;  ///< candidate cap; 0 = engine default
};

std::vector<ProfileSpec> sweep_rows() {
  std::vector<ProfileSpec> rows;
  {
    ProfileSpec clean{"clean", target::FaultProfile::clean(), 1, 100000};
    rows.push_back(clean);
  }
  // Single fault types at representative rates: what each failure mode
  // costs in isolation.
  {
    ProfileSpec r{"absent 0.02", {}, 2, 800000};
    r.faults.false_absent_rate = 0.02;
    rows.push_back(r);
  }
  {
    ProfileSpec r{"present 0.02", {}, 2, 800000};
    r.faults.false_present_rate = 0.02;
    rows.push_back(r);
  }
  {
    ProfileSpec r{"dropped 0.10", {}, 2, 800000};
    r.faults.dropped_rate = 0.10;
    rows.push_back(r);
  }
  {
    ProfileSpec r{"stale 0.02", {}, 2, 800000};
    r.faults.stale_rate = 0.02;
    rows.push_back(r);
  }
  {
    ProfileSpec r{"burst 0.01", {}, 2, 800000};
    r.faults.burst_rate = 0.01;
    r.faults.burst_length = 3;
    rows.push_back(r);
  }
  rows.push_back({"moderate", target::FaultProfile::moderate(), 2, 800000});
  // The documented saturating usage: harden the threshold well past the
  // burst length, spend a token budget, take the partial result — and let
  // the residual finisher close it (the masks keep the truth; the
  // presence evidence ranks it near the front of the residual space).
  // Joint-update targets (PRESENT) expose every segment to every
  // observation, so they face ~kSegments times the elimination pressure
  // per budget — the threshold carries margin for that.
  rows.push_back(
      {"saturating", target::FaultProfile::saturating(), 16, 4000, true});
  return rows;
}

/// False-absent ramp: success probability / cost as eviction noise grows.
std::vector<double> ramp_rates(bool quick) {
  if (quick) return {0.01, 0.04};
  return {0.01, 0.02, 0.04, 0.08};
}

/// The failed stage's ground-truth candidate per segment (the bench knows
/// the victim key, so it can audit the partial-result contract).
template <typename Recovery>
std::array<unsigned, Recovery::kSegments> true_candidates(const Key128& key,
                                                          unsigned stage) {
  std::array<unsigned, Recovery::kSegments> truth{};
  if constexpr (std::is_same_v<Recovery, target::Present80Recovery>) {
    const std::uint64_t rk0 = (key.hi << 48) | (key.lo >> 16);
    for (unsigned s = 0; s < Recovery::kSegments; ++s) {
      truth[s] = static_cast<unsigned>((rk0 >> (4 * s)) & 0xF);
    }
  } else {
    gift::KeySchedule schedule{key, stage + 1};
    if constexpr (std::is_same_v<Recovery, target::Gift64Recovery>) {
      const gift::RoundKey64 rk = schedule.round_key64(stage);
      for (unsigned s = 0; s < Recovery::kSegments; ++s) {
        truth[s] = (((rk.u >> s) & 1u) << 1) | ((rk.v >> s) & 1u);
      }
    } else {
      const gift::RoundKey128 rk = schedule.round_key128(stage);
      for (unsigned s = 0; s < Recovery::kSegments; ++s) {
        truth[s] = (((rk.u >> s) & 1u) << 1) | ((rk.v >> s) & 1u);
      }
    }
  }
  return truth;
}

/// Aggregated outcome of one (cipher, profile) cell.
struct CellStats {
  unsigned trials = 0;
  unsigned verified = 0;  ///< success AND matches the ground-truth key
  unsigned partial = 0;   ///< budget exhausted mid-stage
  unsigned partial_truth_contained = 0;
  unsigned finished = 0;  ///< partials the finisher closed (verified)
  SampleStats enc_ok;  ///< encryptions of verified trials
  SampleStats noise_restarts;
  SampleStats dropped;
  SampleStats verify_restarts;
  SampleStats residual_bits;  ///< of partial trials
  SampleStats finisher_candidates;  ///< of finisher-run trials
  SampleStats finisher_rank;        ///< of finisher-recovered trials
  SampleStats finisher_wall;        ///< seconds, of finisher-run trials
};

template <typename Recovery>
CellStats run_cell(runner::ThreadPool& pool, unsigned trials,
                   std::uint64_t seed_base, const ProfileSpec& spec) {
  // The shared grid expander (runner::ShardPlan); the cell keeps the
  // profile's own fault seed for every trial, so the plan's per-trial
  // fault stream is unused here (the campaign engine consumes it).
  const runner::ShardPlan plan{seed_base, 0, trials, 1};
  struct Outcome {
    target::RecoveryResult<Recovery> result;
    bool verified = false;
    bool truth_contained = false;
  };
  const std::vector<Outcome> outcomes = runner::map_trials<Outcome>(
      pool, plan,
      [&](std::size_t, const runner::TrialSeed& ts, std::uint64_t) {
        const Key128 key = Recovery::canonical_key(ts.key);
        typename target::KeyRecoveryEngine<Recovery>::Config cfg;
        cfg.seed = ts.seed;
        cfg.vote_threshold = spec.vote_threshold;
        cfg.max_encryptions = spec.budget;
        cfg.faults = spec.faults;
        cfg.finish_partials = spec.finish;
        if (spec.finish_budget != 0) {
          cfg.finish_max_candidates = spec.finish_budget;
        }
        Outcome o;
        o.result = target::recover_key<Recovery>(key, cfg);
        o.verified = o.result.success && o.result.recovered_key == key;
        if (o.result.failed_stage < Recovery::kStages) {
          const auto truth =
              true_candidates<Recovery>(key, o.result.failed_stage);
          o.truth_contained = true;
          for (unsigned s = 0; s < Recovery::kSegments; ++s) {
            if (!((o.result.surviving_masks[s] >> truth[s]) & 1u)) {
              o.truth_contained = false;
              break;
            }
          }
        }
        return o;
      });

  CellStats stats;
  stats.trials = trials;
  for (const Outcome& o : outcomes) {
    if (o.verified) {
      ++stats.verified;
      stats.enc_ok.add(static_cast<double>(o.result.total_encryptions));
    }
    stats.noise_restarts.add(static_cast<double>(o.result.noise_restarts));
    stats.dropped.add(static_cast<double>(o.result.dropped_observations));
    stats.verify_restarts.add(
        static_cast<double>(o.result.verify_restarts));
    if (o.result.failed_stage < Recovery::kStages) {
      ++stats.partial;
      stats.residual_bits.add(o.result.residual_key_bits);
      if (o.truth_contained) ++stats.partial_truth_contained;
    }
    const finisher::FinisherStats& fin = o.result.finisher;
    if (fin.outcome != finisher::FinisherOutcome::kNotRun) {
      stats.finisher_candidates.add(
          static_cast<double>(fin.candidates_tested));
      stats.finisher_wall.add(fin.wall_seconds);
      if (fin.outcome == finisher::FinisherOutcome::kRecovered &&
          o.verified) {
        ++stats.finished;
        stats.finisher_rank.add(static_cast<double>(fin.rank));
      }
    }
  }
  return stats;
}

std::string ratio(unsigned num, unsigned den) {
  return std::to_string(num) + "/" + std::to_string(den);
}

std::string mean1(const SampleStats& s) {
  if (s.count() == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", s.mean());
  return buf;
}

template <typename Recovery>
void sweep_cipher(bench::BenchContext& ctx, unsigned trials,
                  std::uint64_t seed_base) {
  const std::vector<ProfileSpec> rows = sweep_rows();

  AsciiTable table{std::string{Recovery::kName} +
                   " key recovery vs channel fault profile"};
  table.set_header({"profile", "vote", "verified", "enc (mean ok)",
                    "noise restarts", "dropped", "verify restarts",
                    "partial (truth kept)", "residual bits", "finished"});
  json::Value metrics = json::Value::object();
  std::uint64_t cell_seed = seed_base;
  for (const ProfileSpec& spec : rows) {
    const CellStats s =
        run_cell<Recovery>(ctx.pool(), trials, cell_seed, spec);
    cell_seed += 0x9E3779B97F4A7C15ull;  // distinct stream per cell
    table.add_row({spec.label, std::to_string(spec.vote_threshold),
                   ratio(s.verified, s.trials), mean1(s.enc_ok),
                   mean1(s.noise_restarts), mean1(s.dropped),
                   mean1(s.verify_restarts),
                   ratio(s.partial_truth_contained, s.partial),
                   mean1(s.residual_bits),
                   spec.finish ? ratio(s.finished, s.partial) : "-"});
    json::Value cell = json::Value::object();
    cell.set("verified", s.verified);
    cell.set("trials", s.trials);
    cell.set("mean_encryptions_ok",
             s.enc_ok.count() ? s.enc_ok.mean() : 0.0);
    cell.set("mean_noise_restarts", s.noise_restarts.mean());
    cell.set("partial", s.partial);
    cell.set("partial_truth_contained", s.partial_truth_contained);
    if (spec.finish) {
      cell.set("finished", s.finished);
      cell.set("mean_finisher_candidates", s.finisher_candidates.mean());
      cell.set("mean_finisher_rank", s.finisher_rank.mean());
      // Timing suffix: check_bench strips `_seconds` keys from the
      // determinism comparison but still gates their magnitude.
      cell.set("mean_finisher_wall_seconds", s.finisher_wall.mean());
    }
    metrics.set(spec.label, std::move(cell));
  }
  ctx.print_table(table);
  ctx.set_metric(Recovery::kName, std::move(metrics));

  // False-absent ramp: the axis the direct-probe platform's cache-level
  // noise option (noise_accesses_per_round) maps onto.
  AsciiTable ramp{std::string{Recovery::kName} +
                  " cost vs false-absent rate (vote 2)"};
  ramp.set_header(
      {"false-absent rate", "verified", "enc (mean ok)", "noise restarts"});
  for (const double rate : ramp_rates(ctx.quick())) {
    ProfileSpec spec{"", {}, 2, 800000};
    spec.faults.false_absent_rate = rate;
    const CellStats s =
        run_cell<Recovery>(ctx.pool(), trials, cell_seed, spec);
    cell_seed += 0x9E3779B97F4A7C15ull;
    char label[16];
    std::snprintf(label, sizeof label, "%.2f", rate);
    ramp.add_row({label, ratio(s.verified, s.trials), mean1(s.enc_ok),
                  mean1(s.noise_restarts)});
  }
  ctx.print_table(ramp);

  // Residual bits vs finisher cost: how the unresolved key space a
  // starved run leaves behind (a function of the vote threshold — lower
  // thresholds let more stages resolve before the budget runs out) maps
  // onto the cost of closing it offline.  These cells consume fresh
  // cell_seed values after every existing table, so the rows above keep
  // their historical seed stream.  The table is byte-compared like every
  // other, so the wall time goes to stderr and the `_seconds` metric only.
  AsciiTable fin{std::string{Recovery::kName} +
                 " residual bits vs finisher work (saturating)"};
  fin.set_header({"vote", "partial", "residual bits", "finished",
                  "mean candidates", "mean rank"});
  json::Value fin_metrics = json::Value::object();
  // Sub-threshold votes can resolve stages *wrongly* under 30%
  // false-present noise, leaving the truth outside the masks; the
  // finisher then burns its whole candidate budget before reporting
  // evidence_inconsistent, so the sweep caps it low enough to keep the
  // worst case cheap.  PRESENT's cap is far tighter: its residual
  // verification pays a 2^16 offline low-bit search per rejected
  // candidate (one BM_Present80KeySearch each), while the evidence ranks
  // a kept truth at the front anyway (the typed finisher tests pin that).
  const std::uint64_t sweep_finish_budget =
      std::is_same_v<Recovery, target::Present80Recovery> ? 8 : 4096;
  for (const unsigned vote : {8u, 12u, 16u}) {
    ProfileSpec spec{"", target::FaultProfile::saturating(), vote, 4000};
    spec.finish = true;
    spec.finish_budget = sweep_finish_budget;
    const CellStats s =
        run_cell<Recovery>(ctx.pool(), trials, cell_seed, spec);
    cell_seed += 0x9E3779B97F4A7C15ull;
    fin.add_row({std::to_string(vote), ratio(s.partial, s.trials),
                 mean1(s.residual_bits), ratio(s.finished, s.partial),
                 mean1(s.finisher_candidates), mean1(s.finisher_rank)});
    std::fprintf(stderr, "%s vote %u: finisher wall %.2f ms (mean)\n",
                 Recovery::kName, vote,
                 s.finisher_wall.count() ? s.finisher_wall.mean() * 1e3 : 0.0);
    json::Value cell = json::Value::object();
    cell.set("partial", s.partial);
    cell.set("finished", s.finished);
    cell.set("mean_residual_bits", s.residual_bits.mean());
    cell.set("mean_finisher_candidates", s.finisher_candidates.mean());
    cell.set("mean_finisher_wall_seconds", s.finisher_wall.mean());
    fin_metrics.set("vote_" + std::to_string(vote), std::move(cell));
  }
  ctx.print_table(fin);
  ctx.set_metric(std::string{Recovery::kName} + "_residual_vs_wall",
                 std::move(fin_metrics));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx{argc, argv};
  const unsigned kTrials = ctx.quick() ? 3 : 8;
  ctx.set_config("trials", kTrials);
  ctx.set_config("budget_fault_rows", 800000);
  ctx.set_config("budget_saturating", 4000);

  std::printf("Robustness — key recovery through a faulty probe channel\n\n");

  sweep_cipher<target::Gift64Recovery>(ctx, kTrials, 0x64F4017);
  sweep_cipher<target::Gift128Recovery>(ctx, kTrials, 0x128F4017);
  sweep_cipher<target::Present80Recovery>(ctx, kTrials, 0x80F4017);

  std::printf(
      "Reading: voted elimination (vote 2) rides out every single-mode "
      "fault and the\nmoderate mixed profile at a bounded encryption "
      "premium; at saturating rates the\nengine degrades to a partial "
      "result whose surviving masks keep the true\ncandidates — and the "
      "residual finisher closes it, turning the presence\nevidence into "
      "a maximum-likelihood ordering that ranks the true key at the\n"
      "front of even a 2^128 residual space (mean rank ~0, "
      "milliseconds of\nverification).  Sub-threshold votes (the "
      "residual-bits tables) show the\ntrade: resolving stages under "
      "saturating noise shrinks the residual space\nbut can resolve "
      "them wrongly, which no finisher budget can repair.\n");
  return ctx.finish();
}
