// The campaign engine: resumable, sharded attack execution.
//
// run_campaign() expands a CampaignSpec through the shared shard expander
// (runner::ShardPlan — every trial's victim key, engine seed and fault
// seed derived up front, position-based).  Each pool participant keeps
// one WideRecoveryEngine and pulls trials from a shared cursor that moves
// in trial order, one trial at a time; the worker that records a shard's
// last trial publishes the shard.  A dedicated flusher thread appends the
// longest contiguous prefix of published shards to the results file, one
// JSONL record per trial *in trial order* regardless of completion
// order, maintains a running CRC-32 of the flushed bytes, and drops an
// atomic checkpoint (campaign/checkpoint.h) every
// `checkpoint_every_shards` flushed shards — so at any instant the
// checkpoint + results file on disk form a consistent resumable state,
// even under SIGKILL.
//
// Determinism contract: the results file of a campaign killed at ANY
// point and resumed (any number of times, at any thread count or wide
// width) is byte-identical to the uninterrupted run.  Three properties
// make that hold, each pinned by tests/campaign/:
//  1. trial inputs are position-derived (ShardPlan), so re-running shard
//     k always reproduces its trials' exact RNG material;
//  2. a trial's result depends on its inputs only (the WideRecoveryEngine
//     conformance contract: any engine, any earlier trials on it), so
//     wide_width only sets the shard boundaries — and wide_width is part
//     of the spec identity anyway;
//  3. flushing is strictly in shard order with the prefix CRC recorded,
//     so "resume from shard k" is exactly "truncate to the checkpointed
//     prefix and continue".
//
// Stop protocol (drain semantics): Options::stop is polled before every
// trial claim — workers finish the trial they run and claim no other, a
// shard whose trials did not all finish is never published, published
// shards flush, a final checkpoint records the prefix, and the outcome
// reports `interrupted`.  campaign::SigintHandler raises the same flag
// from SIGINT/SIGTERM.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "campaign/checkpoint.h"
#include "campaign/spec.h"

namespace grinch::campaign {

/// Run-side knobs.  Nothing here may change result bytes — thread count,
/// checkpoint cadence and paths are all outside the spec identity.
struct Options {
  /// JSONL results stream (required).
  std::string results_path;
  /// Checkpoint file; empty disables checkpointing (and resume).
  std::string checkpoint_path;
  /// ThreadPool size; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Checkpoint cadence, in flushed shards (>= 1).
  std::size_t checkpoint_every_shards = 8;
  /// Live progress line on stderr.
  bool progress = false;
  /// Resume from checkpoint_path instead of starting fresh.  The
  /// checkpoint's spec fingerprint and the results file's flushed-prefix
  /// CRC are both verified before any work runs.
  bool resume = false;
  /// Cooperative stop flag (SigintHandler::stop_flag(), or any atomic a
  /// test flips).  May be null.
  std::atomic<bool>* stop = nullptr;
  /// Test hook: after exactly this many shards have been flushed, raise
  /// the stop flag and flush nothing further — a deterministic
  /// kill-at-shard-boundary for the resume tests.  0 disables.
  std::size_t stop_after_flushed_shards = 0;
};

struct Outcome {
  /// Every shard ran and flushed.
  bool completed = false;
  /// Stopped by the stop flag (or the test hook) with work remaining.
  bool interrupted = false;
  std::size_t shards_done = 0;
  std::size_t shard_total = 0;
  std::uint64_t trials_done = 0;
  Counters counters;
  /// Non-empty on a hard error (bad spec, I/O failure, resume mismatch);
  /// completed/interrupted are both false then.
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Runs (or resumes) a campaign.  Dispatches on spec.cipher to the
/// registered recovery; the spec is validated first.
[[nodiscard]] Outcome run_campaign(const CampaignSpec& spec,
                                   const Options& options);

}  // namespace grinch::campaign
