// The single generic direct-probe observation platform.
//
// One template replaces the three per-cipher platforms the repo used to
// carry (GIFT-64 / GIFT-128 / PRESENT-80 each had a copy): the victim
// encrypts with its instrumented table cipher, the access stream is
// replayed against the simulated cache around the attacker's prepare /
// probe points, and a Flush+Reload probe reports line presence.
//
// `Traits` describes the cipher-specific facts (see docs/TARGETS.md):
//   using Block / TableCipher;
//   static constexpr unsigned kAccessesPerRound;
//   static constexpr unsigned kRounds;
//   static constexpr unsigned kFirstKeyDependentRound;  // GIFT 1, PRESENT 0
//   static std::uint64_t fold_ciphertext(Block);
//
// Probing-round semantics: attack stage `s` monitors cipher round
// s + kFirstKeyDependentRound (GIFT mixes the key *after* the S-Box
// layer, so its round 0 is key-free and stage s monitors round s+1;
// PRESENT mixes it *before*, so stage 0 monitors round 0 directly).
// "Probing round k" means the probe observes the cache after k rounds of
// that monitored window have executed.
//
// Hot path (the partial-round fast path, docs/TARGETS.md): the probe only
// consumes accesses up to probed_after_round, so the victim encryption is
// truncated there — observe() emits min(monitored_from + probing_round,
// kRounds) rounds from a schedule precomputed at construction, and the
// full ciphertext is derived lazily in last_ciphertext(), i.e. only for
// the final verification encryptions.  The truncated trace is the exact
// prefix of the full one (asserted per cipher by
// tests/target/partial_round_test.cpp), so every observation bit, cycle
// count and cache transition is identical to simulating all rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cachesim/cache.h"
#include "common/key128.h"
#include "gift/table_gift.h"
#include "target/observation.h"
#include "target/prober.h"
#include "target/wide_observe.h"

namespace grinch::target {

template <typename Traits>
class DirectProbePlatform final
    : public ObservationSource<typename Traits::Block> {
 public:
  using Block = typename Traits::Block;

  struct Config {
    cachesim::CacheConfig cache = cachesim::CacheConfig::paper_default();
    TableLayout layout;
    unsigned probing_round = 1;  ///< k in the semantics above (>= 1)
    bool use_flush = true;
  };

  DirectProbePlatform(const Config& config, const Key128& victim_key)
      : config_(config),
        key_(victim_key),
        cache_(config.cache),
        cipher_(config.layout),
        prober_(cache_, config.layout),
        schedule_(cipher_.make_schedule(victim_key)),
        line_ids_(
            compute_index_line_ids(config.layout, config.cache.line_bytes)) {}

  Observation observe(Block plaintext, unsigned stage) override {
    return observe_at(plaintext, window_for(stage));
  }

  void observe_batch(std::span<const Block> plaintexts, unsigned stage,
                     ObservationBatch& out) override {
    // The probe window depends only on the stage: derive it once for the
    // whole batch; each element then runs the same scalar pipeline (warm
    // sink, warm prober schedule), so results are bit-identical to
    // per-element observe() calls.
    const ProbeWindow window = window_for(stage);
    out.resize(plaintexts.size());
    for (std::size_t i = 0; i < plaintexts.size(); ++i) {
      out[i] = observe_at(plaintexts[i], window);
    }
  }

  [[nodiscard]] const TableLayout& layout() const override {
    return config_.layout;
  }
  [[nodiscard]] std::vector<unsigned> index_line_ids() const override {
    return line_ids_;  // computed once at construction
  }
  [[nodiscard]] Block last_ciphertext() const override {
    if (!last_ct_valid_) {
      // Complete the truncated encryption functionally (no sink, no cache
      // traffic — the simulated cache state is untouched).
      last_ct_ = cipher_.encrypt_with_schedule(last_pt_, schedule_,
                                               Traits::kRounds, nullptr);
      last_ct_valid_ = true;
    }
    return last_ct_;
  }

 private:
  [[nodiscard]] ProbeWindow window_for(unsigned stage) const noexcept {
    return probe_window_for<Traits>(stage, config_.probing_round);
  }

  Observation observe_at(Block plaintext, const ProbeWindow& window) {
    // Collect the (truncated) access stream once, then replay rounds
    // against the cache around the attacker's flush/probe points.  The
    // sink is reused across calls, so it stops allocating after the first
    // encryption.
    sink_.clear();
    const Block state = cipher_.encrypt_with_schedule(
        plaintext, schedule_, window.emit_rounds, &sink_);
    last_pt_ = plaintext;
    // A full-depth run already is the ciphertext; shorter ones complete
    // lazily in last_ciphertext().
    last_ct_valid_ = window.emit_rounds >= Traits::kRounds;
    if (last_ct_valid_) last_ct_ = state;

    constexpr unsigned per_round = Traits::kAccessesPerRound;
    auto replay_rounds = [&](unsigned from, unsigned to) {
      for (std::size_t i = static_cast<std::size_t>(from) * per_round;
           i < static_cast<std::size_t>(to) * per_round &&
           i < sink_.accesses().size();
           ++i) {
        cache_.touch(sink_.accesses()[i].addr);
      }
    };

    std::uint64_t attacker_cycles = 0;
    if (!config_.use_flush) attacker_cycles += prober_.prepare();
    replay_rounds(0, window.monitored_from);
    if (config_.use_flush) {
      // The attacker flushes the monitored lines right before the
      // monitored round.
      attacker_cycles += prober_.prepare();
    }
    replay_rounds(window.monitored_from, window.probe_after);

    const ProbeResult probe = prober_.probe();
    Observation o;
    o.present = probe.row_present;
    o.probed_after_round = window.probe_after;
    o.attacker_cycles = attacker_cycles + probe.cycles;
    return o;
  }

  Config config_;
  Key128 key_;
  cachesim::Cache cache_;
  typename Traits::TableCipher cipher_;
  FlushReloadProber prober_;
  typename Traits::TableCipher::Schedule schedule_;
  std::vector<unsigned> line_ids_;
  gift::VectorTraceSink sink_;
  Block last_pt_{};
  mutable Block last_ct_{};
  mutable bool last_ct_valid_ = true;  ///< Block{} before any observation
};

}  // namespace grinch::target
