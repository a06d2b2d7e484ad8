// Deterministic channel fault injection over any ObservationSource.
//
// FaultyObservationSource decorates a platform with the fault vocabulary
// of target/fault_model.h: every delivered observation passes through the
// fault channel (target/fault_channel.h), which may evict monitored lines
// from it (false absents), add lines the victim never touched (false
// presents), mark it dropped (detectable probe miss), replace it with the
// previous delivered line set (stale) or with uniform garbage (burst).
// Faults act at *cache line* granularity — indices sharing a line flip
// together — using the inner source's index_line_ids() grouping.
//
// Determinism: each fault mode owns an independent Xoshiro256 sub-seeded
// from FaultProfile::seed via SplitMix64, and draws exactly once per
// delivered observation when its rate is nonzero (line-level modes draw
// once per monitored line).  Corruption is therefore a pure function of
// the delivered-observation sequence, byte-reproducible across runs and
// thread counts, and identical whether observations arrive through
// observe() or observe_batch() — the batch override corrupts elements in
// delivery order.
//
// Speculative batching: KeyRecoveryEngine may observe a speculative batch
// and then consume only a prefix of it (recovery_engine.h).  Discarded
// elements must not advance the fault channel, or the batched engine
// would diverge from the scalar one.  observe_batch() therefore
// checkpoints the channel state after every element, and rewind_to(k)
// restores the state to "k elements consumed".  The engine
// calls it automatically when Config::faults is set; when wrapping a
// source manually, drive the engine with max_batch = 1 (strict scalar) or
// call rewind_to() yourself after partial consumption.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "target/fault_channel.h"
#include "target/fault_model.h"
#include "target/observation.h"

namespace grinch::target {

template <typename Block>
class FaultyObservationSource final : public ObservationSource<Block> {
 public:
  using Stats = FaultChannel::Stats;

  FaultyObservationSource(ObservationSource<Block>& inner,
                          const FaultProfile& profile)
      : inner_(&inner),
        channel_(profile, inner.layout(), inner.index_line_ids()) {}

  Observation observe(Block plaintext, unsigned stage) override {
    Observation o = inner_->observe(plaintext, stage);
    channel_.corrupt(o);
    checkpoints_.clear();
    return o;
  }

  void observe_batch(std::span<const Block> plaintexts, unsigned stage,
                     ObservationBatch& out) override {
    inner_->observe_batch(plaintexts, stage, out);
    checkpoints_.clear();
    checkpoints_.push_back(channel_.state());
    for (Observation& o : out) {
      channel_.corrupt(o);
      checkpoints_.push_back(channel_.state());
    }
  }

  /// Restores the fault channel to the state after `consumed` elements of
  /// the last observe_batch() call, as if the discarded tail had never
  /// been observed.  A no-op when the whole batch was consumed or no
  /// batch is pending.
  void rewind_to(std::size_t consumed) {
    if (consumed < checkpoints_.size()) channel_.restore(checkpoints_[consumed]);
    checkpoints_.clear();
  }

  void focus_segment(unsigned segment) override {
    inner_->focus_segment(segment);
  }
  [[nodiscard]] const TableLayout& layout() const override {
    return inner_->layout();
  }
  [[nodiscard]] std::vector<unsigned> index_line_ids() const override {
    return inner_->index_line_ids();
  }
  [[nodiscard]] Block last_ciphertext() const override {
    // Probe faults never touch the victim's encryption; the published
    // ciphertext passes through untouched.
    return inner_->last_ciphertext();
  }

  [[nodiscard]] const Stats& stats() const noexcept { return channel_.stats(); }
  [[nodiscard]] const FaultProfile& profile() const noexcept {
    return channel_.profile();
  }

 private:
  ObservationSource<Block>* inner_;
  FaultChannel channel_;
  /// Channel state after each element of the pending batch (index 0 =
  /// before element 0); rewind_to() restores from here.
  std::vector<FaultChannel::State> checkpoints_;
};

}  // namespace grinch::target
