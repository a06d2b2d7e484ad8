// Deterministic parallel trial execution on top of ThreadPool.
//
// The determinism contract (docs/RUNNER.md): all per-trial RNG material
// is derived *up front* from the cell's base seed, by drawing from one
// Xoshiro256 stream in trial order — exactly the draws the old serial
// loop made.  The parallel phase then touches no shared RNG: trial t
// consumes seeds_[t] and writes results_[t] only.  Result: the output is
// bit-identical for any thread count, and identical to the pre-runner
// serial harnesses for equal trial counts.
#pragma once

#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "common/key128.h"
#include "common/rng.h"
#include "runner/thread_pool.h"

namespace grinch::runner {

/// Pre-derived RNG material for one trial: the victim key plus the seed
/// for the attack's own stream.
struct TrialSeed {
  Key128 key{};
  std::uint64_t seed = 0;
};

/// Splits `seed` into `trials` independent (key, seed) pairs — the same
/// `rng.key128()` then `rng.next()` draws, in trial order, that the
/// serial harness loops made, so migrated benches reproduce their old
/// numbers exactly.
[[nodiscard]] std::vector<TrialSeed> derive_trial_seeds(std::uint64_t seed,
                                                        std::size_t trials);

/// Splits `seed` into `count` plain u64 sub-seeds (stream splitting for
/// components that need a seed but no victim key).
[[nodiscard]] std::vector<std::uint64_t> derive_seeds(std::uint64_t seed,
                                                      std::size_t count);

/// Runs independent jobs on a pool and collects results in index order.
class TrialRunner {
 public:
  explicit TrialRunner(ThreadPool& pool) noexcept : pool_(&pool) {}

  [[nodiscard]] ThreadPool& pool() const noexcept { return *pool_; }

  /// map(n, fn) -> {fn(0), ..., fn(n-1)}, evaluated in parallel, returned
  /// in index order.  R must be default-constructible.
  template <typename R>
  std::vector<R> map(std::size_t n,
                     const std::function<R(std::size_t)>& fn) const {
    std::vector<R> results(n);
    pool_->parallel_for(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  ThreadPool* pool_;
};

/// One contiguous slice of a trial list: trials [begin, begin + width).
/// The campaign engine flushes and checkpoints whole shards; which worker
/// runs which trial does not depend on them.
struct WideShard {
  std::size_t begin = 0;
  unsigned width = 0;
};

/// Cuts `trials` into contiguous shards of at most `width` trials (the
/// last shard may be narrower; width is clamped to [1, 64]).  Shards are
/// independent — dispatch each to a WideRecoveryEngine::run() call,
/// serially or across a pool — and cover the trial list exactly, in
/// order, so sharded results concatenate into the unsharded order.
[[nodiscard]] std::vector<WideShard> make_wide_shards(std::size_t trials,
                                                      unsigned width);

/// A deterministically expanded trial grid: every trial's RNG material
/// (victim key, engine seed, fault-stream seed) pre-derived in trial
/// order, cut into contiguous shards.  This is the one shard
/// expander shared by the campaign engine (src/campaign/), the extension/
/// robustness benches and the CLI front-ends — because the derivation is
/// position-based (trial t always draws the same material for a given
/// base seed), shard width, thread count and interruption/resume cannot
/// change any trial's inputs, which is what makes sharded, checkpointed
/// campaigns byte-identical to one uninterrupted serial run.
class ShardPlan {
 public:
  /// Derives `trials` (key, seed) pairs from `seed` (exactly
  /// derive_trial_seeds) plus an independent per-trial fault-seed stream
  /// from `fault_seed` (exactly derive_seeds), sharded at `width` trials
  /// (clamped to [1, 64]).
  ShardPlan(std::uint64_t seed, std::uint64_t fault_seed, std::size_t trials,
            unsigned width)
      : seeds_(derive_trial_seeds(seed, trials)),
        fault_seeds_(derive_seeds(fault_seed, trials)),
        shards_(make_wide_shards(trials, width)) {}

  [[nodiscard]] std::size_t trials() const noexcept { return seeds_.size(); }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const WideShard& shard(std::size_t i) const {
    return shards_.at(i);
  }

  /// All trials' pre-derived material, in trial order.
  [[nodiscard]] const std::vector<TrialSeed>& seeds() const noexcept {
    return seeds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& fault_seeds()
      const noexcept {
    return fault_seeds_;
  }

  /// One shard's slice of the trial material.
  [[nodiscard]] std::span<const TrialSeed> seeds(
      const WideShard& s) const noexcept {
    return std::span<const TrialSeed>(seeds_).subspan(s.begin, s.width);
  }
  [[nodiscard]] std::span<const std::uint64_t> fault_seeds(
      const WideShard& s) const noexcept {
    return std::span<const std::uint64_t>(fault_seeds_)
        .subspan(s.begin, s.width);
  }

 private:
  std::vector<TrialSeed> seeds_;
  std::vector<std::uint64_t> fault_seeds_;
  std::vector<WideShard> shards_;
};

/// Maps every trial of a plan across the pool: out[t] = fn(t, seeds()[t],
/// fault_seeds()[t]), returned in trial order.  The scalar-trial
/// counterpart of dispatching a plan shard-by-shard — benches that run
/// independent recoveries (bench_util::recovery_trials, the robustness
/// sweep) and the campaign engine all expand through the same ShardPlan,
/// so their per-trial RNG material agrees by construction.
template <typename R, typename Fn>
std::vector<R> map_trials(ThreadPool& pool, const ShardPlan& plan, Fn&& fn) {
  std::vector<R> out(plan.trials());
  pool.parallel_for(plan.trials(), [&](std::size_t t) {
    out[t] = fn(t, plan.seeds()[t], plan.fault_seeds()[t]);
  });
  return out;
}

/// Flattens a grid of cells with per-cell trial counts into one task
/// list — `fn(cell, trial)` — so a cheap cell's threads immediately help
/// the expensive cells instead of idling at per-cell barriers.  Tasks are
/// ordered cell-major (all trials of cell 0, then cell 1, ...).
void parallel_cells(ThreadPool& pool, const std::vector<std::size_t>& trials,
                    const std::function<void(std::size_t cell,
                                             std::size_t trial)>& fn);

}  // namespace grinch::runner
