// CampaignSpec — the declarative unit of work of the campaign engine.
//
// A spec names a target cipher, a cache/platform configuration, a channel
// fault profile, a shard width and a seed range; it expands
// *deterministically* into runner::ShardPlan shards (docs/CAMPAIGN.md).
// Everything that can change a trial's bytes lives in the spec; run-side
// knobs that cannot (thread count, checkpoint cadence, output paths) live
// in campaign::Options instead.  That split is what makes the resume
// contract checkable: the checkpoint embeds the spec's canonical form,
// and a resume under any thread count reproduces the interrupted run's
// remaining bytes exactly.
//
// Specs parse from JSON (json::parse; see examples/specs/) or assemble
// from CLI flags; canonical() serializes back to a normalized compact
// document whose CRC-32 is the spec fingerprint stored in checkpoints —
// resuming against a different spec is refused, not silently blended.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.h"
#include "target/fault_model.h"

namespace grinch::campaign {

struct CampaignSpec {
  /// Free-form label, echoed into every result record.
  std::string name = "campaign";
  /// Registered target: "gift64", "gift128" or "present80".
  std::string cipher = "gift64";
  /// Seed range: trial t draws its key/seed material at position t of the
  /// streams derived from `seed` / `fault_seed` (runner::ShardPlan).
  std::uint64_t trials = 64;
  std::uint64_t seed = 0xCA3D;
  std::uint64_t fault_seed = 0xFA171;
  /// Trials per shard (clamped to [1, 64]): the unit the results file is
  /// flushed and checkpointed in.  Workers pull trials one at a time
  /// whatever the width, so it has no effect on speed, and results are
  /// byte-identical at ANY width apart from this field in each record.
  unsigned wide_width = 8;
  /// Per-trial encryption budget (KeyRecoveryEngine::Config::
  /// max_encryptions).
  std::uint64_t budget = 100000;
  /// Channel fault profile name ("clean", "moderate", "saturating").
  std::string fault_profile = "clean";
  /// Elimination vote threshold; 0 = auto (noisy default when the profile
  /// injects faults, hard elimination otherwise).
  unsigned vote_threshold = 0;
  /// Residual-key finisher (KeyRecoveryEngine::Config::finish_partials):
  /// trials that would degrade to a partial escalate into the inline
  /// maximum-likelihood residual search instead.
  bool finish = false;
  /// Finisher candidate budget per trial (finish_max_candidates); only
  /// meaningful with `finish` set.
  std::uint64_t finish_budget = std::uint64_t{1} << 17;
  /// Cache line size in words (Table I axis) and probing round.
  unsigned line_words = 1;
  unsigned probing_round = 1;

  /// Validates field ranges and the cipher name; on failure returns
  /// false and, when non-null, fills `error`.
  [[nodiscard]] bool validate(std::string* error = nullptr) const;

  /// The normalized JSON form (every field, fixed key order).
  [[nodiscard]] json::Value to_json() const;

  /// Compact normalized serialization — the spec's identity string.
  [[nodiscard]] std::string canonical() const;

  /// CRC-32 of canonical(): the fingerprint checkpoints embed.
  [[nodiscard]] std::uint32_t fingerprint() const;

  /// Parses a spec document.  Unknown keys are rejected (a typo must not
  /// silently fall back to a default), missing keys keep their defaults,
  /// and the result is validate()d.
  [[nodiscard]] static std::optional<CampaignSpec> from_json(
      const json::Value& doc, std::string* error = nullptr);
  [[nodiscard]] static std::optional<CampaignSpec> parse(
      std::string_view text, std::string* error = nullptr);

  /// The named fault profile with this spec's base fault seed (per-trial
  /// lane seeds come from the ShardPlan stream, not from here); clean for
  /// a name validate() refuses.
  [[nodiscard]] target::FaultProfile faults() const;

  /// vote_threshold, resolving 0 to the documented default for the
  /// profile (noisy_defaults when faulted, 1 otherwise).
  [[nodiscard]] unsigned effective_vote_threshold() const;
};

}  // namespace grinch::campaign
