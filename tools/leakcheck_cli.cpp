// leakcheck — static secret-dependence analyzer for the cipher
// implementations in this repository.
//
//   leakcheck                       # analyze every registered target
//   leakcheck --target gift64-table # analyze one target
//   leakcheck --list                # list targets and expectations
//   leakcheck --json                # machine-readable reports
//   leakcheck --verbose             # per-segment taint detail
//   leakcheck --trials N            # dynamic oracle key pairs (default 16)
//   leakcheck --rounds N            # attacked rounds to quantify
//   leakcheck --static-only         # skip the dynamic oracle
//   leakcheck --seed S              # dynamic oracle RNG seed
//
// Quantitative subcommand (pass 3, analysis/quantify.h):
//
//   leakcheck quantify                    # quantify every target + budget gate
//   leakcheck quantify --target NAME      # one target
//   leakcheck quantify --json             # machine-readable reports
//   leakcheck quantify --verbose          # per-segment / per-line detail
//   leakcheck quantify --rounds N         # attacked rounds to quantify
//   leakcheck quantify --samples N        # sampled-pass key draws (0 = off)
//   leakcheck quantify --sample-seed S    # sampled-pass RNG seed
//   leakcheck quantify --no-sampled       # skip the dynamic sampled pass
//   leakcheck quantify --no-gate          # report only; ignore budgets
//   leakcheck quantify --expect-sbox-bits X   # override the declared budget
//   leakcheck quantify --expect-perm-bits X   # (the CI drift negative test)
//
// Exit status: 0 when every analyzed target matches its registered
// expectation AND the static and dynamic passes agree (for quantify: every
// measured leak matches its declared budget and stays under the taint
// bound); 1 otherwise; 2 on usage errors, among them a numeric option
// whose value is not a whole number that fits its field, or for the
// --expect-*-bits overrides a finite non-negative decimal
// (`bad --<flag>`).  CI runs this over all targets
// so reintroducing a secret-dependent lookup into a protected
// implementation — or silently changing how much one leaks — fails the
// build.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/leakcheck.h"
#include "analysis/quantify.h"
#include "common/hex.h"

using namespace grinch;

namespace {

/// Reads a whole number in C notation (decimal, 0x hex or 0-prefixed
/// octal) into `out`.  Anything after the number, or a value that does
/// not fit `out`, prints `bad --<flag>` and returns false.
template <typename T>
bool read_whole(const std::string& flag, const char* text, T& out) {
  const std::optional<std::uint64_t> value = parse_whole_u64(text);
  if (!value || *value > std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "bad %s (need a whole number that fits, got '%s')\n",
                 flag.c_str(), text);
    return false;
  }
  out = static_cast<T>(*value);
  return true;
}

/// Reads a finite, non-negative decimal (digits, an optional fraction)
/// into `out`.  Anything after the number, a sign, an exponent or a
/// value out of range prints `bad --<flag>` and returns false.
bool read_bits(const std::string& flag, const char* text, double& out) {
  const char* const end = text + std::strlen(text);
  double value = 0.0;
  const auto [rest, error] =
      std::from_chars(text, end, value, std::chars_format::fixed);
  if (error != std::errc{} || rest != end || *text == '-' ||
      !std::isfinite(value)) {
    std::fprintf(stderr,
                 "bad %s (need a non-negative decimal number, got '%s')\n",
                 flag.c_str(), text);
    return false;
  }
  out = value;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: leakcheck [--target NAME] [--list] [--json] "
               "[--verbose]\n"
               "                 [--trials N] [--rounds N] [--seed S] "
               "[--static-only]\n");
  return 2;
}

int list_targets() {
  for (const analysis::AnalysisTarget& t : analysis::builtin_targets()) {
    std::printf("%-28s expect %-9s %s\n", t.name.c_str(),
                t.expect_leaky ? "LEAKY" : "leak-free",
                t.description.c_str());
  }
  return 0;
}

int quantify_usage() {
  std::fprintf(stderr,
               "usage: leakcheck quantify [--target NAME] [--json] "
               "[--verbose]\n"
               "                 [--rounds N] [--samples N] [--sample-seed S]"
               "\n"
               "                 [--no-sampled] [--no-gate]\n"
               "                 [--expect-sbox-bits X] "
               "[--expect-perm-bits X]\n");
  return 2;
}

int quantify_main(int argc, char** argv) {
  std::string target_name;
  bool json = false;
  bool verbose = false;
  bool gate = true;
  bool have_expect_sbox = false;
  bool have_expect_perm = false;
  double expect_sbox = 0.0;
  double expect_perm = 0.0;
  analysis::QuantifyConfig cfg;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "leakcheck: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--no-gate") {
      gate = false;
    } else if (arg == "--no-sampled") {
      cfg.run_sampled = false;
    } else if (arg == "--target") {
      const char* v = value();
      if (v == nullptr) return quantify_usage();
      target_name = v;
    } else if (arg == "--rounds") {
      const char* v = value();
      if (v == nullptr) return quantify_usage();
      if (!read_whole(arg, v, cfg.rounds)) return 2;
    } else if (arg == "--samples") {
      const char* v = value();
      if (v == nullptr) return quantify_usage();
      if (!read_whole(arg, v, cfg.sample_budget)) return 2;
      if (cfg.sample_budget == 0) cfg.run_sampled = false;
    } else if (arg == "--sample-seed") {
      const char* v = value();
      if (v == nullptr) return quantify_usage();
      if (!read_whole(arg, v, cfg.sample_seed)) return 2;
    } else if (arg == "--expect-sbox-bits") {
      const char* v = value();
      if (v == nullptr) return quantify_usage();
      if (!read_bits(arg, v, expect_sbox)) return 2;
      have_expect_sbox = true;
    } else if (arg == "--expect-perm-bits") {
      const char* v = value();
      if (v == nullptr) return quantify_usage();
      if (!read_bits(arg, v, expect_perm)) return 2;
      have_expect_perm = true;
    } else {
      return quantify_usage();
    }
  }
  // The overrides exist to *inject* drift (the CI gate's negative test):
  // they replace the declared budget of every selected target, so they
  // only make sense for a single one.
  if ((have_expect_sbox || have_expect_perm) && target_name.empty()) {
    std::fprintf(stderr,
                 "leakcheck: --expect-*-bits needs --target NAME\n");
    return quantify_usage();
  }

  std::vector<analysis::AnalysisTarget> targets =
      analysis::builtin_targets();
  std::vector<analysis::QuantifyReport> reports;
  if (target_name.empty()) {
    reports = analysis::quantify_all(cfg);
  } else {
    const analysis::AnalysisTarget* target =
        analysis::find_target(targets, target_name);
    if (target == nullptr) {
      std::fprintf(stderr, "leakcheck: unknown target '%s' (try --list)\n",
                   target_name.c_str());
      return 2;
    }
    analysis::QuantifyReport report = analysis::quantify(*target, cfg);
    if (have_expect_sbox) report.budget_sbox_bits = expect_sbox;
    if (have_expect_perm) report.budget_perm_bits = expect_perm;
    reports.push_back(std::move(report));
  }

  bool ok = true;
  for (const analysis::QuantifyReport& r : reports) {
    ok = ok && (gate ? r.ok() : r.within_taint_bound());
  }

  if (json) {
    std::printf("%s\n", analysis::quantify_reports_to_json(reports).c_str());
  } else {
    for (const analysis::QuantifyReport& r : reports) {
      std::printf("%s\n", r.to_text(verbose).c_str());
    }
    std::printf("leakcheck quantify: %zu target(s), %s\n", reports.size(),
                ok ? (gate ? "all within declared leakage budgets"
                           : "all within taint bounds (gate off)")
                   : "BUDGET DRIFT or taint-bound violation");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "quantify") == 0) {
    return quantify_main(argc - 2, argv + 2);
  }

  std::string target_name;
  bool json = false;
  bool verbose = false;
  analysis::LeakcheckConfig cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Missing flag values are usage errors, not inputs: "" would strtoul
    // to 0 and silently turn e.g. `--trials` into a 0-trial oracle whose
    // vacuous "equivalent" verdict misreports leaky targets.
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "leakcheck: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list") return list_targets();
    if (arg == "--json") {
      json = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--static-only") {
      cfg.run_dynamic = false;
    } else if (arg == "--target") {
      const char* v = value();
      if (v == nullptr) return usage();
      target_name = v;
    } else if (arg == "--trials") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!read_whole(arg, v, cfg.diff.trials)) return 2;
      if (cfg.diff.trials == 0) {
        std::fprintf(stderr,
                     "leakcheck: --trials must be >= 1 "
                     "(use --static-only to skip the oracle)\n");
        return usage();
      }
    } else if (arg == "--rounds") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!read_whole(arg, v, cfg.analysis_rounds)) return 2;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!read_whole(arg, v, cfg.diff.seed)) return 2;
    } else {
      return usage();
    }
  }

  // An explicit --rounds bounds *both* passes: leaving the oracle at the
  // target's default trace depth would compare different windows and
  // always report a static/dynamic inconsistency.
  if (cfg.analysis_rounds != 0 && cfg.diff.rounds == 0) {
    cfg.diff.rounds = cfg.analysis_rounds;
  }

  std::vector<analysis::LeakReport> reports;
  if (target_name.empty()) {
    reports = analysis::analyze_all(cfg);
  } else {
    const std::vector<analysis::AnalysisTarget> targets =
        analysis::builtin_targets();
    const analysis::AnalysisTarget* target =
        analysis::find_target(targets, target_name);
    if (target == nullptr) {
      std::fprintf(stderr, "leakcheck: unknown target '%s' (try --list)\n",
                   target_name.c_str());
      return 2;
    }
    reports.push_back(analysis::analyze(*target, cfg));
  }

  bool ok = true;
  for (const analysis::LeakReport& r : reports) {
    ok = ok && r.as_expected();
  }

  if (json) {
    std::printf("%s\n", analysis::reports_to_json(reports).c_str());
  } else {
    for (const analysis::LeakReport& r : reports) {
      std::printf("%s\n", r.to_text(verbose).c_str());
    }
    std::printf("leakcheck: %zu target(s), %s\n", reports.size(),
                ok ? "all verdicts as expected"
                   : "UNEXPECTED verdicts or static/dynamic disagreement");
  }
  return ok ? 0 : 1;
}
