// JSONL result records — one self-describing line per campaign trial.
//
// Every record repeats the identifying context (cipher, fault profile,
// wide width, victim key, both seeds) so a results file sliced out of a
// larger aggregate still says exactly what produced each line; the
// remaining fields are the trial's RecoveryResult verbatim.  Key order is
// fixed and serialization goes through json::Value::dump_compact(), so
// record bytes are deterministic — which is what lets the resume contract
// be checked with a byte comparison (tests/campaign/).
//
// Partial trials (budget exhausted mid-stage) append the partial-result
// contract fields (failed_stage, surviving_masks, residual_key_bits);
// completed trials omit them rather than emitting sentinels.  Trials the
// residual finisher ran on additionally self-describe its outcome
// (finisher_outcome, candidates tested, winner/frontier ranks, offline
// trials, searched bits) — deterministic fields only, never wall time,
// so record bytes stay reproducible across machines and thread counts.
//
// Serialization is a direct string build, not a json::Value round-trip:
// record writing sits on the campaign workers' critical path (the
// throughput bench charges it against the 5% orchestration budget), and
// every emitted value is escape-free by construction — integers, bools
// and fixed-alphabet strings (cipher/profile names, hex keys) — so the
// bytes are exactly what dump_compact() would produce.  The engine tests
// pin that equivalence by round-tripping every emitted line through the
// strict parser.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "campaign/checkpoint.h"
#include "campaign/spec.h"
#include "common/key128.h"
#include "runner/trial_runner.h"
#include "target/stage_state.h"

namespace grinch::campaign {

namespace detail {

inline void append_field(std::string& out, const char* key,
                         std::uint64_t v) {
  out += key;
  out += std::to_string(v);
}

inline void append_field(std::string& out, const char* key, bool v) {
  out += key;
  out += v ? "true" : "false";
}

inline void append_field(std::string& out, const char* key,
                         std::string_view v) {
  out += key;
  out += '"';
  out += v;
  out += '"';
}

}  // namespace detail

/// Serializes one trial's outcome as a single JSONL line (with trailing
/// newline).  `victim_key` must already be canonicalised to the cipher's
/// key space; `verified` is recomputed here as an exact match against it.
template <typename Recovery>
std::string trial_record(const CampaignSpec& spec, std::size_t trial,
                         const Key128& victim_key, std::uint64_t seed,
                         std::uint64_t fault_seed,
                         const target::RecoveryResult<Recovery>& r) {
  using detail::append_field;
  const bool verified = r.success && r.recovered_key == victim_key;
  std::string out;
  out.reserve(512);
  append_field(out, "{\"trial\":", static_cast<std::uint64_t>(trial));
  append_field(out, ",\"cipher\":", std::string_view{Recovery::kName});
  append_field(out, ",\"fault_profile\":",
               std::string_view{spec.fault_profile});
  append_field(out, ",\"wide_width\":",
               static_cast<std::uint64_t>(spec.wide_width));
  append_field(out, ",\"victim_key\":",
               std::string_view{victim_key.to_hex()});
  append_field(out, ",\"seed\":", seed);
  append_field(out, ",\"fault_seed\":", fault_seed);
  append_field(out, ",\"success\":", r.success);
  append_field(out, ",\"verified\":", verified);
  append_field(out, ",\"recovered_key\":",
               r.success ? std::string_view{r.recovered_key.to_hex()}
                         : std::string_view{});
  append_field(out, ",\"total_encryptions\":", r.total_encryptions);
  append_field(out, ",\"offline_trials\":",
               static_cast<std::uint64_t>(r.offline_trials));
  out += ",\"stage_encryptions\":[";
  bool first = true;
  for (const std::uint64_t e : r.stage_encryptions) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(e);
  }
  out += ']';
  append_field(out, ",\"noise_restarts\":",
               static_cast<std::uint64_t>(r.noise_restarts));
  append_field(out, ",\"dropped_observations\":",
               static_cast<std::uint64_t>(r.dropped_observations));
  append_field(out, ",\"verify_restarts\":",
               static_cast<std::uint64_t>(r.verify_restarts));
  if (r.failed_stage < Recovery::kStages) {
    append_field(out, ",\"failed_stage\":",
                 static_cast<std::uint64_t>(r.failed_stage));
    out += ",\"surviving_masks\":[";
    first = true;
    for (const std::uint16_t m : r.surviving_masks) {
      if (!first) out += ',';
      first = false;
      out += std::to_string(static_cast<unsigned>(m));
    }
    out += ']';
    append_field(out, ",\"residual_key_bits\":",
                 static_cast<std::uint64_t>(r.residual_key_bits));
    if (r.finisher.outcome != finisher::FinisherOutcome::kNotRun) {
      append_field(out, ",\"finisher_outcome\":",
                   std::string_view{
                       finisher::finisher_outcome_name(r.finisher.outcome)});
      append_field(out, ",\"finisher_candidates\":",
                   r.finisher.candidates_tested);
      append_field(out, ",\"finisher_rank\":", r.finisher.rank);
      append_field(out, ",\"finisher_frontier\":", r.finisher.frontier_rank);
      append_field(out, ",\"finisher_offline_trials\":",
                   r.finisher.offline_trials);
      append_field(out, ",\"finisher_search_bits\":",
                   static_cast<std::uint64_t>(r.finisher.search_space_bits));
    }
  }
  out += "}\n";
  return out;
}

/// Folds one trial's outcome into the aggregate counters.
template <typename Recovery>
void count_trial(Counters& counters, const Key128& victim_key,
                 const target::RecoveryResult<Recovery>& r) {
  counters.total_encryptions += r.total_encryptions;
  counters.noise_restarts += r.noise_restarts;
  counters.dropped_observations += r.dropped_observations;
  counters.verify_restarts += r.verify_restarts;
  if (r.success && r.recovered_key == victim_key) ++counters.verified;
  if (r.failed_stage < Recovery::kStages) ++counters.partial;
  if (r.finisher.outcome == finisher::FinisherOutcome::kRecovered &&
      r.success && r.recovered_key == victim_key) {
    ++counters.finished;
  }
}

}  // namespace grinch::campaign
