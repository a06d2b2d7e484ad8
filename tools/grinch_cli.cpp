// grinch — command-line front-end to the reproduction library.
//
//   grinch encrypt  --key <hex32> --pt <hex16> [--cipher gift64|gift128|present80]
//   grinch decrypt  --key <hex32> --ct <hex16> [--cipher ...]
//   grinch attack   [--key <hex32>] [--line-words N] [--probing-round K]
//                   [--no-flush] [--prime-probe] [--stages N]
//                   [--budget N] [--seed N] [--joint] [--precise]
//                   [--noise N] [--statistical]
//   grinch attack128 [--key <hex32>] [--budget N] [--seed N]
//
// The unified-engine commands (attack128, attack-present) also accept
//   --finish       escalate a budget-exhausted partial into the residual
//                  maximum-likelihood key search (src/finisher/)
//   --finish-budget N   cap the finisher at N candidate keys (default 2^17)
//   --json PATH    write a machine-readable run report
//
//   grinch platforms              # Table II quick view
//   grinch countermeasures        # §IV-C quick view
//
//   grinch campaign run    [--spec FILE | spec flags] [--out PATH]
//                          [--checkpoint PATH] [--checkpoint-every N]
//                          [--threads N] [--progress]
//                          [--finish] [--finish-budget N]
//   grinch campaign resume --checkpoint PATH [--out PATH] [--threads N]
//   grinch campaign status --checkpoint PATH
//
// Campaign runs stream JSONL results and checkpoint periodically; SIGINT/
// SIGTERM drain in-flight shards and checkpoint before exit (exit code 3
// = interrupted, resumable).  See docs/CAMPAIGN.md.
//
// Exit code 0 on success (for `attack`: key recovered and verified).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "attack/grinch.h"
#include "campaign/engine.h"
#include "campaign/sigint.h"
#include "campaign/spec.h"
#include "common/hex.h"
#include "common/rng.h"
#include "countermeasures/evaluator.h"
#include "gift/gift128.h"
#include "gift/gift64.h"
#include "present/present.h"
#include "soc/platform.h"
#include "target/registry.h"

using namespace grinch;

namespace {

struct Args {
  std::string command;
  std::vector<std::string> positionals;  ///< bare words after the command
  std::map<std::string, std::string> options;
  std::map<std::string, bool> flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::strtoull(it->second.c_str(),
                                                          nullptr, 0);
  }
  [[nodiscard]] bool has(const std::string& flag) const {
    return flags.count(flag) > 0;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.positionals.push_back(a);  // e.g. `campaign run`
      continue;
    }
    a = a.substr(2);
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      args.options[a] = argv[++i];
    } else {
      args.flags[a] = true;
    }
  }
  return args;
}

int usage() {
  std::fprintf(stderr,
               "usage: grinch <encrypt|decrypt|attack|attack128|"
               "attack-present|campaign|platforms|countermeasures>"
               " [options]\n"
               "run with a command to see its defaults; see README.md.\n");
  return 2;
}

Key128 key_from_args(const Args& args, Xoshiro256& rng) {
  Key128 key = rng.key128();
  const std::string hex = args.get("key", "");
  if (!hex.empty() && !Key128::from_hex(hex, key)) {
    std::fprintf(stderr, "bad --key (need 32 hex digits)\n");
    std::exit(2);
  }
  return key;
}

int cmd_crypt(const Args& args, bool encrypt) {
  Xoshiro256 rng{1};
  const Key128 key = key_from_args(args, rng);
  const std::string cipher = args.get("cipher", "gift64");
  const std::string block_hex =
      args.get(encrypt ? "pt" : "ct", encrypt ? "0000000000000000" : "");

  if (cipher == "gift128") {
    if (block_hex.size() != 32) {
      std::fprintf(stderr, "gift128 needs a 32-hex-digit block\n");
      return 2;
    }
    const auto hi = parse_hex_u64(block_hex.substr(0, 16));
    const auto lo = parse_hex_u64(block_hex.substr(16));
    if (!hi || !lo) {
      std::fprintf(stderr, "bad block (need 32 hex digits)\n");
      return 2;
    }
    const gift::State128 in{*hi, *lo};
    const gift::State128 out = encrypt ? gift::Gift128::encrypt(in, key)
                                       : gift::Gift128::decrypt(in, key);
    std::printf("%s%s\n", to_hex_u64(out.hi).c_str(),
                to_hex_u64(out.lo).c_str());
    return 0;
  }

  const auto block = parse_hex_u64(block_hex);
  if (!block) {
    std::fprintf(stderr, "bad block (need up to 16 hex digits)\n");
    return 2;
  }
  std::uint64_t out;
  if (cipher == "present80") {
    out = encrypt ? present::Present80::encrypt(*block, key)
                  : present::Present80::decrypt(*block, key);
  } else {
    out = encrypt ? gift::Gift64::encrypt(*block, key)
                  : gift::Gift64::decrypt(*block, key);
  }
  std::printf("%s\n", to_hex_u64(out).c_str());
  return 0;
}

int cmd_attack(const Args& args) {
  Xoshiro256 rng{args.get_u64("seed", 0xC11)};
  const Key128 key = key_from_args(args, rng);

  soc::DirectProbePlatform::Config pcfg;
  pcfg.cache.line_bytes =
      static_cast<unsigned>(args.get_u64("line-words", 1));
  pcfg.probing_round =
      static_cast<unsigned>(args.get_u64("probing-round", 1));
  pcfg.use_flush = !args.has("no-flush");
  if (args.has("prime-probe")) pcfg.method = soc::ProbeMethod::kPrimeProbe;
  if (args.has("precise")) pcfg.precise_probe = true;
  pcfg.noise_accesses_per_round =
      static_cast<unsigned>(args.get_u64("noise", 0));
  soc::DirectProbePlatform platform{pcfg, key};

  attack::GrinchConfig acfg;
  acfg.stages = static_cast<unsigned>(args.get_u64("stages", 4));
  acfg.max_encryptions = args.get_u64("budget", 1000000);
  acfg.seed = args.get_u64("seed", 0xC11) ^ 0xA77AC4;
  acfg.exploit_all_segments = args.has("joint");
  acfg.statistical_elimination = args.has("statistical");
  attack::GrinchAttack attack{platform, acfg};
  const attack::AttackResult r = attack.run();

  std::printf("victim key:      %s\n", key.to_hex().c_str());
  std::printf("platform:        %s, probing round %u, %s, %s\n",
              pcfg.cache.describe().c_str(), pcfg.probing_round,
              pcfg.use_flush ? "flush" : "no flush",
              pcfg.method == soc::ProbeMethod::kPrimeProbe ? "Prime+Probe"
                                                           : "Flush+Reload");
  unsigned long long restarts = 0;
  for (std::size_t s = 0; s < r.stages.size(); ++s) {
    restarts += r.stages[s].noise_restarts;
    std::printf("stage %zu:         %s (%llu encryptions, %u restarts)\n", s,
                r.stages[s].success   ? "resolved"
                : r.stages[s].deferred ? "deferred"
                                       : "failed",
                static_cast<unsigned long long>(r.stages[s].encryptions),
                r.stages[s].noise_restarts);
  }
  std::printf("encryptions:     %llu\n",
              static_cast<unsigned long long>(r.total_encryptions));
  std::printf("noise restarts:  %llu\n", restarts);
  if (acfg.stages == 4 && r.success) {
    std::printf("recovered key:   %s\n", r.recovered_key.to_hex().c_str());
    std::printf("verified:        %s\n", r.key_verified ? "yes" : "no");
    std::printf("exact match:     %s\n",
                r.recovered_key == key ? "yes" : "NO");
    return r.recovered_key == key ? 0 : 1;
  }
  std::printf("result:          %s\n", r.success ? "success" : "FAILED");
  return r.success ? 0 : 1;
}

// Shared noisy-channel knobs of the unified-engine commands:
// --fault-profile clean|moderate|saturating injects channel faults
// (target/fault_model.h), --fault-seed reseeds them, --vote overrides the
// elimination threshold (defaults to the noisy preset when faults are on).
template <typename Config>
void apply_fault_args(const Args& args, Config& cfg) {
  cfg.faults = target::FaultProfile::named(args.get("fault-profile", "clean"));
  cfg.faults.seed = args.get_u64("fault-seed", cfg.faults.seed);
  const unsigned fallback =
      cfg.faults.any() ? Config::noisy_defaults().vote_threshold
                       : cfg.vote_threshold;
  cfg.vote_threshold = static_cast<unsigned>(args.get_u64("vote", fallback));
}

/// --finish arms the residual finisher (finish mode reserves evidence and
/// known pairs, then a budget-exhausted run escalates into the ML search);
/// --finish-budget caps its candidate enumeration.  `--finish PATH`-style
/// accidental values still count as the flag (the parser folds a bare
/// `--finish` before another option into flags, but `--finish 1` into
/// options).
template <typename Config>
void apply_finish_args(const Args& args, Config& cfg) {
  cfg.finish_partials =
      args.has("finish") || args.options.count("finish") > 0;
  cfg.finish_max_candidates =
      args.get_u64("finish-budget", cfg.finish_max_candidates);
}

/// Writes the machine-readable run report for --json PATH.  Every record
/// is self-describing: it names the fault profile that produced it, so a
/// report sliced out of a batch still says what ran.
template <typename Recovery>
void write_json_report(const std::string& path, const char* command,
                       const Key128& victim, const std::string& fault_profile,
                       const target::RecoveryResult<Recovery>& r) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write --json %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"command\": \"%s\",\n", command);
  std::fprintf(f, "  \"victim_key\": \"%s\",\n", victim.to_hex().c_str());
  std::fprintf(f, "  \"fault_profile\": \"%s\",\n", fault_profile.c_str());
  std::fprintf(f, "  \"success\": %s,\n", r.success ? "true" : "false");
  std::fprintf(f, "  \"exact_match\": %s,\n",
               r.success && r.recovered_key == victim ? "true" : "false");
  std::fprintf(f, "  \"recovered_key\": \"%s\",\n",
               r.success ? r.recovered_key.to_hex().c_str() : "");
  std::fprintf(f, "  \"total_encryptions\": %llu,\n",
               static_cast<unsigned long long>(r.total_encryptions));
  std::fprintf(f, "  \"noise_restarts\": %llu,\n",
               static_cast<unsigned long long>(r.noise_restarts));
  std::fprintf(f, "  \"dropped_observations\": %llu,\n",
               static_cast<unsigned long long>(r.dropped_observations));
  std::fprintf(f, "  \"verify_restarts\": %llu",
               static_cast<unsigned long long>(r.verify_restarts));
  if (r.failed_stage < Recovery::kStages) {
    std::fprintf(f, ",\n  \"failed_stage\": %u,\n", r.failed_stage);
    std::fprintf(f, "  \"surviving_masks\": [");
    for (unsigned s = 0; s < Recovery::kSegments; ++s) {
      std::fprintf(f, "%s%u", s == 0 ? "" : ",",
                   static_cast<unsigned>(r.surviving_masks[s]));
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"residual_key_bits\": %.2f", r.residual_key_bits);
    if (r.finisher.outcome != finisher::FinisherOutcome::kNotRun) {
      // Unlike the campaign JSONL records (byte-compared on resume), the
      // CLI report is a one-off, so the wall time is fair game here.
      std::fprintf(f, ",\n  \"finisher_outcome\": \"%s\",\n",
                   finisher::finisher_outcome_name(r.finisher.outcome));
      std::fprintf(f, "  \"finisher_candidates\": %llu,\n",
                   static_cast<unsigned long long>(
                       r.finisher.candidates_tested));
      std::fprintf(f, "  \"finisher_rank\": %llu,\n",
                   static_cast<unsigned long long>(r.finisher.rank));
      std::fprintf(f, "  \"finisher_frontier\": %llu,\n",
                   static_cast<unsigned long long>(r.finisher.frontier_rank));
      std::fprintf(f, "  \"finisher_offline_trials\": %llu,\n",
                   static_cast<unsigned long long>(
                       r.finisher.offline_trials));
      std::fprintf(f, "  \"finisher_search_bits\": %.2f,\n",
                   r.finisher.search_space_bits);
      std::fprintf(f, "  \"finisher_wall_seconds\": %.6f",
                   r.finisher.wall_seconds);
    }
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

template <typename Recovery>
void print_noise_report(const target::RecoveryResult<Recovery>& r) {
  std::printf("noise restarts: %llu; dropped observations: %llu;"
              " verify restarts: %llu\n",
              static_cast<unsigned long long>(r.noise_restarts),
              static_cast<unsigned long long>(r.dropped_observations),
              static_cast<unsigned long long>(r.verify_restarts));
  if (r.failed_stage >= Recovery::kStages) return;
  std::printf("partial result: stage %u unresolved, %.1f residual key bits,"
              " surviving masks",
              r.failed_stage, r.residual_key_bits);
  for (unsigned s = 0; s < Recovery::kSegments; ++s) {
    std::printf(" %03x", r.surviving_masks[s]);
  }
  std::printf("\n");
  if (r.finisher.outcome == finisher::FinisherOutcome::kNotRun) return;
  std::printf("finisher:       %s (%llu of 2^%.1f candidates, rank %llu,"
              " frontier %llu, %.2fs)\n",
              finisher::finisher_outcome_name(r.finisher.outcome),
              static_cast<unsigned long long>(r.finisher.candidates_tested),
              r.finisher.search_space_bits,
              static_cast<unsigned long long>(r.finisher.rank),
              static_cast<unsigned long long>(r.finisher.frontier_rank),
              r.finisher.wall_seconds);
}

int cmd_attack128(const Args& args) {
  Xoshiro256 rng{args.get_u64("seed", 0xC128)};
  const Key128 key = key_from_args(args, rng);
  target::KeyRecoveryEngine<target::Gift128Recovery>::Config cfg;
  cfg.max_encryptions = args.get_u64("budget", 100000);
  cfg.seed = args.get_u64("seed", 0xC128) ^ 0x128;
  apply_fault_args(args, cfg);
  apply_finish_args(args, cfg);
  const auto r = target::recover_key<target::Gift128Recovery>(key, cfg);
  std::printf("victim key:    %s\n", key.to_hex().c_str());
  std::printf("encryptions:   %llu (stages %llu + %llu)\n",
              static_cast<unsigned long long>(r.total_encryptions),
              static_cast<unsigned long long>(r.stage_encryptions[0]),
              static_cast<unsigned long long>(r.stage_encryptions[1]));
  print_noise_report(r);
  if (r.success) {
    std::printf("recovered key: %s\nexact match:   %s\n",
                r.recovered_key.to_hex().c_str(),
                r.recovered_key == key ? "yes" : "NO");
  } else {
    std::printf("result:        FAILED\n");
  }
  write_json_report(args.get("json", ""), "attack128", key,
                    args.get("fault-profile", "clean"), r);
  return r.success && r.recovered_key == key ? 0 : 1;
}

int cmd_attack_present(const Args& args) {
  Xoshiro256 rng{args.get_u64("seed", 0xC80)};
  const Key128 key =
      target::Present80Recovery::canonical_key(key_from_args(args, rng));
  target::KeyRecoveryEngine<target::Present80Recovery>::Config cfg;
  cfg.max_encryptions = args.get_u64("budget", 100000);
  cfg.seed = args.get_u64("seed", 0xC80) ^ 0x80;
  apply_fault_args(args, cfg);
  apply_finish_args(args, cfg);
  const auto r = target::recover_key<target::Present80Recovery>(key, cfg);
  std::printf("victim key (80-bit): %s\n", key.to_hex().c_str());
  std::printf("monitored encryptions: %llu; offline search: 2^16\n",
              static_cast<unsigned long long>(r.total_encryptions));
  print_noise_report(r);
  if (r.success) {
    std::printf("recovered key:       %s\nexact match:         %s\n",
                r.recovered_key.to_hex().c_str(),
                r.recovered_key == key ? "yes" : "NO");
  } else {
    std::printf("result: FAILED\n");
  }
  write_json_report(args.get("json", ""), "attack-present", key,
                    args.get("fault-profile", "clean"), r);
  return r.success && r.recovered_key == key ? 0 : 1;
}

/// Reads a whole file into a string; false on open failure.
bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n = 0;
  out.clear();
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

/// Assembles a CampaignSpec from --spec FILE (if given) overlaid with any
/// inline spec flags; exits with a diagnostic on a bad spec.
campaign::CampaignSpec spec_from_args(const Args& args) {
  campaign::CampaignSpec spec;
  const std::string spec_path = args.get("spec", "");
  if (!spec_path.empty()) {
    std::string text;
    if (!read_file(spec_path, text)) {
      std::fprintf(stderr, "cannot read --spec %s\n", spec_path.c_str());
      std::exit(2);
    }
    std::string err;
    const auto parsed = campaign::CampaignSpec::parse(text, &err);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", spec_path.c_str(), err.c_str());
      std::exit(2);
    }
    spec = *parsed;
  }
  spec.name = args.get("name", spec.name);
  spec.cipher = args.get("cipher", spec.cipher);
  spec.trials = args.get_u64("trials", spec.trials);
  spec.seed = args.get_u64("seed", spec.seed);
  spec.fault_seed = args.get_u64("fault-seed", spec.fault_seed);
  spec.wide_width =
      static_cast<unsigned>(args.get_u64("wide", spec.wide_width));
  spec.budget = args.get_u64("budget", spec.budget);
  spec.fault_profile = args.get("fault-profile", spec.fault_profile);
  spec.vote_threshold =
      static_cast<unsigned>(args.get_u64("vote", spec.vote_threshold));
  if (args.has("finish") || args.options.count("finish") > 0) {
    spec.finish = true;
  }
  spec.finish_budget = args.get_u64("finish-budget", spec.finish_budget);
  spec.line_words =
      static_cast<unsigned>(args.get_u64("line-words", spec.line_words));
  spec.probing_round = static_cast<unsigned>(
      args.get_u64("probing-round", spec.probing_round));
  std::string err;
  if (!spec.validate(&err)) {
    std::fprintf(stderr, "bad campaign spec: %s\n", err.c_str());
    std::exit(2);
  }
  return spec;
}

void print_campaign_summary(const campaign::Outcome& out) {
  std::printf("shards:          %zu/%zu (%llu trials)\n", out.shards_done,
              out.shard_total,
              static_cast<unsigned long long>(out.trials_done));
  std::printf("verified:        %llu\n",
              static_cast<unsigned long long>(out.counters.verified));
  std::printf("partial:         %llu (finisher recovered %llu)\n",
              static_cast<unsigned long long>(out.counters.partial),
              static_cast<unsigned long long>(out.counters.finished));
  std::printf("encryptions:     %llu\n",
              static_cast<unsigned long long>(out.counters.total_encryptions));
  std::printf("noise restarts:  %llu; dropped: %llu; verify restarts: %llu\n",
              static_cast<unsigned long long>(out.counters.noise_restarts),
              static_cast<unsigned long long>(
                  out.counters.dropped_observations),
              static_cast<unsigned long long>(out.counters.verify_restarts));
}

int run_or_resume_campaign(const campaign::CampaignSpec& spec,
                           const Args& args, bool resume) {
  campaign::Options opts;
  opts.results_path = args.get("out", spec.name + ".jsonl");
  opts.checkpoint_path =
      args.get("checkpoint", opts.results_path + ".ckpt");
  opts.threads = static_cast<unsigned>(args.get_u64("threads", 0));
  opts.checkpoint_every_shards =
      static_cast<std::size_t>(args.get_u64("checkpoint-every", 8));
  opts.progress = args.has("progress");
  opts.resume = resume;
  campaign::SigintHandler sigint;
  opts.stop = sigint.stop_flag();

  const campaign::Outcome out = campaign::run_campaign(spec, opts);
  if (!out.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", out.error.c_str());
    return 1;
  }
  std::printf("campaign:        %s (%s)\n", spec.name.c_str(),
              spec.cipher.c_str());
  std::printf("status:          %s\n",
              out.completed ? "completed" : "interrupted (resumable)");
  print_campaign_summary(out);
  if (out.interrupted) {
    std::printf("resume with:     grinch campaign resume --checkpoint %s"
                " --out %s\n",
                opts.checkpoint_path.c_str(), opts.results_path.c_str());
  }
  return out.completed ? 0 : 3;
}

int cmd_campaign(const Args& args) {
  const std::string sub =
      args.positionals.empty() ? "" : args.positionals.front();
  if (sub == "run") {
    return run_or_resume_campaign(spec_from_args(args), args, false);
  }
  if (sub == "resume" || sub == "status") {
    const std::string ckpt_path =
        args.get("checkpoint", args.positionals.size() > 1
                                   ? args.positionals[1]
                                   : "");
    if (ckpt_path.empty()) {
      std::fprintf(stderr, "campaign %s needs --checkpoint PATH\n",
                   sub.c_str());
      return 2;
    }
    std::string err;
    const auto ckpt = campaign::Checkpoint::load(ckpt_path, &err);
    if (!ckpt) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    const auto spec = campaign::CampaignSpec::parse(ckpt->spec, &err);
    if (!spec) {
      std::fprintf(stderr, "%s: embedded spec invalid: %s\n",
                   ckpt_path.c_str(), err.c_str());
      return 1;
    }
    if (sub == "status") {
      std::printf("campaign:        %s (%s)\n", spec->name.c_str(),
                  spec->cipher.c_str());
      std::printf("spec:            %s\n", ckpt->spec.c_str());
      campaign::Outcome out;
      out.shards_done = static_cast<std::size_t>(ckpt->flushed_shards);
      out.shard_total = static_cast<std::size_t>(ckpt->shard_total);
      out.trials_done = ckpt->flushed_trials;
      out.counters = ckpt->counters;
      print_campaign_summary(out);
      std::printf("results flushed: %llu bytes (crc32 %08x)\n",
                  static_cast<unsigned long long>(ckpt->result_bytes),
                  ckpt->result_crc);
      return 0;
    }
    Args resume_args = args;
    resume_args.options["checkpoint"] = ckpt_path;
    return run_or_resume_campaign(*spec, resume_args, true);
  }
  std::fprintf(stderr, "usage: grinch campaign <run|resume|status>"
                       " [options]; see docs/CAMPAIGN.md\n");
  return 2;
}

int cmd_platforms() {
  Xoshiro256 rng{2};
  const Key128 key = rng.key128();
  std::printf("platform              10MHz  25MHz  50MHz   (probed round)\n");
  std::printf("single-core SoC       ");
  for (double mhz : {10.0, 25.0, 50.0}) {
    soc::SingleCoreSoC::Config cfg;
    cfg.rtos.clock_mhz = mhz;
    soc::SingleCoreSoC soc{cfg, key};
    std::printf("%-7u", soc.first_probe_round());
  }
  std::printf("\nMPSoC (3x3 mesh)      ");
  for (double mhz : {10.0, 25.0, 50.0}) {
    soc::MpSoc::Config cfg;
    cfg.clock_mhz = mhz;
    soc::MpSoc soc{cfg, key};
    std::printf("%-7u", soc.first_probe_round());
  }
  std::printf("\n");
  return 0;
}

int cmd_countermeasures() {
  Xoshiro256 rng{3};
  for (const cm::EvaluationResult& r :
       cm::evaluate_all(rng.key128(), 20000, 9)) {
    std::printf("%-36s key retrieved: %-3s (%llu encryptions) — %s\n",
                cm::to_string(r.protection), r.key_retrieved ? "YES" : "no",
                static_cast<unsigned long long>(r.encryptions),
                r.note.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.command == "encrypt") return cmd_crypt(args, true);
  if (args.command == "decrypt") return cmd_crypt(args, false);
  if (args.command == "attack") return cmd_attack(args);
  if (args.command == "attack128") return cmd_attack128(args);
  if (args.command == "attack-present") return cmd_attack_present(args);
  if (args.command == "campaign") return cmd_campaign(args);
  if (args.command == "platforms") return cmd_platforms();
  if (args.command == "countermeasures") return cmd_countermeasures();
  return usage();
}
