// perfbench: the end-to-end benchmark of the GRINCH reproduction.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out-dir DIR [--commit ID] [--source-digest HEX]
//
// Runs one workload (README.md explains each), prints the run context,
// a human-readable metric table and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics of the traced
// run with --trace 1.  Exits 1 if any output check failed, 2 on bad
// arguments.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "attack.h"
#include "cachesim/kernels/kernels.h"
#include "campaign.h"
#include "common/json.h"
#include "report.h"
#include "target/gift128_recovery.h"
#include "target/present80_recovery.h"

namespace {

using perfbench::CampaignWorkload;

// Why each workload exists is in README.md.  The PRESENT-80 and GIFT-128
// grids hold one shard per worker, so that 100 calls fit in 20 seconds.
constexpr CampaignWorkload kGift64Clean{
    "campaign_gift64_clean", "gift64", "clean", 64, 100000, 0, false,
    std::uint64_t{1} << 17, 1024};
constexpr CampaignWorkload kPresent80Clean{
    "campaign_present80_clean", "present80", "clean", 1, 100000, 0, false,
    std::uint64_t{1} << 17, 4};
// Budget 8000 and a 2^8 finisher budget, not the 4000 and 2^17 of
// examples/campaign_finish_gift64.json: README.md shows the measurements.
constexpr CampaignWorkload kGift128SaturatingFinish{
    "campaign_gift128_saturating_finish", "gift128", "saturating", 8, 8000,
    16, true, std::uint64_t{1} << 8, 32};

constexpr const char* kAttackGift64Single = "attack_gift64_single";

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--commit ID] "
               "[--source-digest HEX]\nworkloads: %s %s %s %s\n",
               msg, kGift64Clean.name, kPresent80Clean.name,
               kGift128SaturatingFinish.name, kAttackGift64Single);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 20 ||
      s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno != 0) return false;
  out = v;
  return true;
}

std::string context_json(const perfbench::RunOptions& opt,
                         const std::map<std::string, std::string>& args) {
  const auto arg = [&](const char* key) {
    const auto it = args.find(key);
    return it == args.end() ? std::string{"unknown"} : it->second;
  };
  grinch::json::Value ctx = grinch::json::Value::object();
  ctx.set("workload", opt.workload);
  ctx.set("seed", opt.seed);
  ctx.set("seconds", opt.seconds);
  ctx.set("trace", opt.trace);
  ctx.set("compiler", PERFBENCH_COMPILER);
  ctx.set("flags", PERFBENCH_FLAGS);
  ctx.set("build_type", PERFBENCH_BUILD_TYPE);
  ctx.set("commit", arg("commit"));
  ctx.set("source_digest", arg("source-digest"));
  ctx.set("kernel", grinch::cachesim::kernels::active().name);
  ctx.set("nproc", std::thread::hardware_concurrency());
  ctx.set("workers", opt.workers);
  return ctx.dump_compact();
}

/// 17 significant digits: every digit measured, and reads back exactly.
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage(("bad argument " + key).c_str());
    }
    args[key.substr(2)] = argv[i + 1];
  }
  perfbench::RunOptions opt;
  std::uint64_t seconds = 0;
  if (!args.count("workload") || !parse_u64(args["seed"], opt.seed) ||
      !parse_u64(args["seconds"], seconds) || seconds == 0 ||
      seconds > 3600 || (args["trace"] != "0" && args["trace"] != "1") ||
      args["out-dir"].empty()) {
    return usage("missing or malformed --workload/--seed/--seconds/"
                 "--trace/--out-dir");
  }
  opt.workload = args["workload"];
  opt.seconds = static_cast<double>(seconds);
  opt.trace = args["trace"] == "1";
  opt.out_dir = args["out-dir"];
  opt.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) return usage(("cannot create " + opt.out_dir).c_str());
  opt.context_json = context_json(opt, args);

  perfbench::Result res;
  if (opt.workload == kGift64Clean.name) {
    res = perfbench::run_campaign_workload<grinch::target::Gift64Recovery>(
        kGift64Clean, opt);
  } else if (opt.workload == kPresent80Clean.name) {
    res = perfbench::run_campaign_workload<
        grinch::target::Present80Recovery>(kPresent80Clean, opt);
  } else if (opt.workload == kGift128SaturatingFinish.name) {
    res = perfbench::run_campaign_workload<grinch::target::Gift128Recovery>(
        kGift128SaturatingFinish, opt);
  } else if (opt.workload == kAttackGift64Single) {
    res = perfbench::run_attack_workload(opt);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  for (const perfbench::Metric& m : res.metrics) {
    res.check(std::isfinite(m.value), m.name + " is not a finite number");
  }
  std::printf("context: %s\n", opt.context_json.c_str());
  for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
  std::printf("attempted %llu, failed (wrong key) %llu, ended without the "
              "key %llu\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.unverified));
  for (const perfbench::Metric& m : res.metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const perfbench::Metric& m : res.printed_only) {
    std::printf("  %-36s %16.6f %s (not in the result JSON)\n",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : res.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::string line = "{\"correct\": ";
  line += res.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(res.attempted);
  line += ", \"failed\": " + std::to_string(res.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return res.errors.empty() ? 0 : 1;
}
