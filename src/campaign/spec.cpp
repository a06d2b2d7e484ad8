#include "campaign/spec.h"

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "target/observation.h"
#include "target/registry.h"

namespace grinch::campaign {

namespace {

constexpr std::array<std::string_view, 3> kCiphers = {"gift64", "gift128",
                                                      "present80"};

bool is_one_of(std::string_view v, std::span<const std::string_view> allowed) {
  for (const std::string_view a : allowed) {
    if (v == a) return true;
  }
  return false;
}

bool set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// True when, for every pre-key nibble, a segment's candidates predict
/// S-Box indices on distinct lines of `line_words`-word lines: otherwise
/// no observation can tell them apart and elimination spends the whole
/// budget.
template <typename Recovery>
bool lines_separate_candidates(unsigned line_words) {
  const std::vector<unsigned> line_of =
      target::compute_index_line_ids(target::TableLayout{}, line_words);
  for (unsigned nibble = 0; nibble < 16; ++nibble) {
    std::uint32_t lines = 0;
    for (unsigned c = 0; c < Recovery::kCandidatesPerSegment; ++c) {
      const std::uint32_t line =
          std::uint32_t{1} << line_of[Recovery::candidate_index(nibble, c)];
      if ((lines & line) != 0) return false;
      lines |= line;
    }
  }
  return true;
}

/// Reads `value` into `field`, or returns what the field takes: as_string,
/// as_bool and as_u64 would put their fallback in its place, and a cast
/// would wrap a number too large for an `unsigned` field.
std::string read_field(const json::Value& value, std::string& field) {
  if (!value.is_string()) return "a string";
  field = value.as_string();
  return {};
}

std::string read_field(const json::Value& value, bool& field) {
  if (!value.is_bool()) return "true or false";
  field = value.as_bool();
  return {};
}

template <typename T>
std::string read_field(const json::Value& value, T& field) {
  const std::optional<std::uint64_t> number = value.to_u64();
  if (!number || *number > std::numeric_limits<T>::max()) {
    return "a whole number up to " +
           std::to_string(std::numeric_limits<T>::max());
  }
  field = static_cast<T>(*number);
  return {};
}

bool lines_separate_candidates(std::string_view cipher, unsigned line_words) {
  if (cipher == "gift128") {
    return lines_separate_candidates<target::Gift128Recovery>(line_words);
  }
  if (cipher == "present80") {
    return lines_separate_candidates<target::Present80Recovery>(line_words);
  }
  return lines_separate_candidates<target::Gift64Recovery>(line_words);
}

}  // namespace

bool CampaignSpec::validate(std::string* error) const {
  if (!is_one_of(cipher, kCiphers)) {
    return set_error(error, "unknown cipher '" + cipher +
                                "' (expected gift64, gift128 or present80)");
  }
  if (!target::FaultProfile::named(fault_profile)) {
    return set_error(error,
                     "unknown fault_profile '" + fault_profile +
                         "' (expected clean, moderate or saturating)");
  }
  if (trials == 0) return set_error(error, "trials must be >= 1");
  if (budget == 0) return set_error(error, "budget must be >= 1");
  if (wide_width == 0 || wide_width > 64) {
    return set_error(error, "wide_width must be in [1, 64]");
  }
  if (line_words == 0 || (line_words & (line_words - 1)) != 0 ||
      line_words > 8) {
    return set_error(error, "line_words must be 1, 2, 4 or 8");
  }
  if (!lines_separate_candidates(cipher, line_words)) {
    return set_error(error, cipher + " cannot run at line_words " +
                                std::to_string(line_words) +
                                ": its candidates share cache lines");
  }
  if (probing_round == 0) return set_error(error, "probing_round must be >= 1");
  if (vote_threshold > 16) {
    return set_error(error, "vote_threshold must be <= 16 (0 = auto)");
  }
  return true;
}

json::Value CampaignSpec::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("name", name);
  doc.set("cipher", cipher);
  doc.set("trials", trials);
  doc.set("seed", seed);
  doc.set("fault_seed", fault_seed);
  doc.set("wide_width", wide_width);
  doc.set("budget", budget);
  doc.set("fault_profile", fault_profile);
  doc.set("vote_threshold", vote_threshold);
  doc.set("finish", finish);
  doc.set("finish_budget", finish_budget);
  doc.set("line_words", line_words);
  doc.set("probing_round", probing_round);
  return doc;
}

std::string CampaignSpec::canonical() const { return to_json().dump_compact(); }

std::uint32_t CampaignSpec::fingerprint() const { return crc32(canonical()); }

std::optional<CampaignSpec> CampaignSpec::from_json(const json::Value& doc,
                                                    std::string* error) {
  if (!doc.is_object()) {
    set_error(error, "spec must be a JSON object");
    return std::nullopt;
  }
  CampaignSpec spec;
  for (const auto& [key, value] : doc.members()) {
    std::string takes;
    if (key == "name") {
      takes = read_field(value, spec.name);
    } else if (key == "cipher") {
      takes = read_field(value, spec.cipher);
    } else if (key == "trials") {
      takes = read_field(value, spec.trials);
    } else if (key == "seed") {
      takes = read_field(value, spec.seed);
    } else if (key == "fault_seed") {
      takes = read_field(value, spec.fault_seed);
    } else if (key == "wide_width") {
      takes = read_field(value, spec.wide_width);
    } else if (key == "budget") {
      takes = read_field(value, spec.budget);
    } else if (key == "fault_profile") {
      takes = read_field(value, spec.fault_profile);
    } else if (key == "vote_threshold") {
      takes = read_field(value, spec.vote_threshold);
    } else if (key == "finish") {
      takes = read_field(value, spec.finish);
    } else if (key == "finish_budget") {
      takes = read_field(value, spec.finish_budget);
    } else if (key == "line_words") {
      takes = read_field(value, spec.line_words);
    } else if (key == "probing_round") {
      takes = read_field(value, spec.probing_round);
    } else {
      set_error(error, "unknown spec key '" + key + "'");
      return std::nullopt;
    }
    if (!takes.empty()) {
      set_error(error, "spec key '" + key + "' takes " + takes);
      return std::nullopt;
    }
  }
  if (!spec.validate(error)) return std::nullopt;
  return spec;
}

std::optional<CampaignSpec> CampaignSpec::parse(std::string_view text,
                                                std::string* error) {
  const std::optional<json::Value> doc = json::parse(text, error);
  if (!doc) return std::nullopt;
  return from_json(*doc, error);
}

target::FaultProfile CampaignSpec::faults() const {
  target::FaultProfile profile = target::FaultProfile::named(fault_profile)
                                     .value_or(target::FaultProfile::clean());
  profile.seed = fault_seed;
  return profile;
}

unsigned CampaignSpec::effective_vote_threshold() const {
  if (vote_threshold != 0) return vote_threshold;
  return faults().any() ? 2 : 1;
}

}  // namespace grinch::campaign
