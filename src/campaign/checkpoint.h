// Atomic campaign checkpoints — the resume half of the campaign contract.
//
// A checkpoint is a single small binary file describing how much of a
// campaign's result stream is durably on disk: the spec's canonical form
// (so a resume against a *different* spec is refused, not silently
// blended), the count of flushed shards/trials, the byte length and
// CRC-32 of the flushed JSONL prefix, and the aggregate counters those
// records contributed.  Because results flush strictly in shard order
// (src/campaign/engine.cpp), "flushed_shards = k" fully determines the
// result file's contents — a resumed campaign truncates the results file
// to the checkpointed prefix, verifies its CRC, and re-runs shards
// [k, total), reproducing the uninterrupted run byte for byte.
//
// Durability: save() writes `<path>.tmp` and std::rename()s it into
// place, so a crash mid-save leaves either the old checkpoint or the new
// one, never a torn file.  load() rejects bad magic, unknown versions,
// truncation and payload CRC mismatches with a diagnostic instead of a
// best-effort guess.  The encoding is host-endian: checkpoints are
// machine-local scratch, not an interchange format.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace grinch::campaign {

/// Aggregate robustness accounting over the flushed trials (sums of the
/// per-trial RecoveryResult counters, plus outcome tallies).
struct Counters {
  std::uint64_t total_encryptions = 0;
  std::uint64_t noise_restarts = 0;
  std::uint64_t dropped_observations = 0;
  std::uint64_t verify_restarts = 0;
  /// Trials whose recovered key matched the victim key exactly.
  std::uint64_t verified = 0;
  /// Trials that exhausted their budget mid-stage (partial results).
  std::uint64_t partial = 0;
  /// Partial trials the residual finisher escalated into a verified
  /// full-key recovery (always <= partial; those trials count under
  /// `verified` too).
  std::uint64_t finished = 0;

  Counters& operator+=(const Counters& o) noexcept {
    total_encryptions += o.total_encryptions;
    noise_restarts += o.noise_restarts;
    dropped_observations += o.dropped_observations;
    verify_restarts += o.verify_restarts;
    verified += o.verified;
    partial += o.partial;
    finished += o.finished;
    return *this;
  }
};

struct Checkpoint {
  static constexpr std::uint32_t kMagic = 0x48435247u;  // "GRCH" (LE)
  // v2 added the probe-kernel name (self-description, like the JSONL
  // records); v3 the Counters::finished tally; v4 dropped the kernel
  // name with the kernel layer, so a v3 checkpoint is never resumed into
  // a results file whose records lack the field.  Older checkpoints are
  // refused like any unknown version — they are machine-local scratch,
  // not an archival format.
  static constexpr std::uint32_t kVersion = 4;

  /// CampaignSpec::canonical() of the campaign this checkpoint belongs
  /// to; resume re-parses the spec from here, so a checkpoint is
  /// self-contained.
  std::string spec;
  /// Not serialized and read by nothing in the library: the end-to-end
  /// benchmark's checkpoint mirror (perfbench/) still assigns it.  Delete
  /// it with that assignment and cachesim/kernels/kernels.h.
  std::string kernel;
  std::uint64_t shard_total = 0;
  std::uint64_t flushed_shards = 0;
  std::uint64_t flushed_trials = 0;
  /// Length and CRC-32 of the flushed JSONL prefix of the results file.
  std::uint64_t result_bytes = 0;
  std::uint32_t result_crc = 0;
  Counters counters;

  /// Atomically replaces `path` (write `<path>.tmp`, rename).  Returns
  /// false and fills `error` (when non-null) on I/O failure.
  [[nodiscard]] bool save(const std::string& path,
                          std::string* error = nullptr) const;

  /// Loads and verifies a checkpoint; nullopt (with a diagnostic) on a
  /// missing/truncated/corrupt file or an unknown version.
  [[nodiscard]] static std::optional<Checkpoint> load(
      const std::string& path, std::string* error = nullptr);
};

}  // namespace grinch::campaign
