// The 64-wide observation core.
//
// WideObserveCore runs up to 64 monitored partial-round encryptions per
// call, one per job, and writes each job's observation into its lane of
// a WideObservationBatch.  Each job takes one of two exact routes:
//
//  * Presence-bitmap shortcut (run_presence) — LRU without a prefetcher
//    (supported()) and monitored lines forming one contiguous line range
//    (every registered cipher: the monitored region is one S-Box table).
//    The instrumented encryption streams its window accesses into a sink
//    that records only which monitored lines were touched and how many
//    accesses hit each cache set; a per-observation capacity test then
//    proves that no monitored line could have been evicted, and every
//    verdict and cycle count falls out of one 64-bit touched-lines
//    bitmap.  No cache state is read or written.
//
//  * Per-lane scalar lane (run_fallback) — every other job: the shortcut's
//    capacity test tripped (deep window on a shallow cache, aliased
//    layout), the monitored lines are not contiguous, or the
//    configuration is not supported() (FIFO/PLRU/Random replacement,
//    prefetchers).  Every backing lane owns a scalar cachesim::Cache +
//    FlushReloadProber pair and replays the exact scalar
//    DirectProbePlatform::observe() pipeline (collect accesses, replay
//    rounds around the attacker's flush point, probe).  Lane state
//    persists across run() calls — like the scalar platform's cache
//    persists across a trial's observations — keyed by Job::lane on every
//    configuration, so callers running multi-trial fleets
//    (target/wide_engine.h) give each trial a stable lane slot and
//    reset_lane_state() it when the trial starts.
//
// Exactness.  Every verdict, probed_after_round and attacker_cycles value
// is bit-identical to the scalar DirectProbePlatform::observe() pipeline
// whose cache carries the trial's full warm history.  The scalar lane is
// that pipeline, so it matches by construction on every configuration.
// The shortcut, and the scalar lane on a supported() configuration whose
// lane holds a different history than the scalar platform's cache (older
// shortcut-served jobs never touch it), rest on one property of LRU
// without a prefetcher: a lane's contents from before the attacker's
// flush cannot change a verdict.
//   * A set's LRU state is a recency stack of at most `ways` lines; a
//     line is evicted exactly when `ways` distinct other lines of its set
//     have been accessed since its own last access (invalid ways fill
//     first, a hit or fill moves a line to most-recent).  Whether it is
//     resident therefore depends only on accesses after its last access,
//     never on what the set held before.
//   * The attacker flushes every monitored line before the window (or
//     before round 0 without use_flush).  At the probe a monitored line
//     is present iff an access after that flush — the window, or an
//     earlier reload of the probe itself — brought it in, and fewer than
//     `ways` distinct other lines of its set were accessed after that.
//     Both halves read only accesses after the flush.
//   * A reload's latency is the hit or miss latency of that verdict, and
//     the flush costs sbox_rows() x flush_latency whatever it removes.
// Older lines — from this trial's earlier observations, from another
// trial that used the lane, or none at all — are only ever victimised
// first, and no reported value reads them.  FIFO breaks the argument
// (hits do not refresh recency), PLRU and Random track state that is
// not a recency stack, and a prefetcher drags neighbour lines across the
// flush boundary; on those configurations the shortcut stays off and the
// scalar lane's exact warm history is load-bearing.  The conformance
// suites pin both routes per registered cipher, including a config
// sweep where the shortcut trips or never engages
// (tests/target/wide_conformance_test.cpp).
//
// Jobs carry their own schedule/window/lane, so one core serves jobs of
// one victim key and stage as well as the multi-trial wide recovery
// engine (per-lane keys and stages — target/wide_engine.h).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cachesim/cache.h"
#include "common/bits.h"
#include "gift/table_gift.h"
#include "target/observation.h"
#include "target/prober.h"
#include "target/table_layout.h"

namespace grinch::target {

/// Stage -> probe-window math, shared by the scalar and wide paths.
/// "Probing round k" for attack stage `s`: the monitored window opens at
/// cipher round s + kFirstKeyDependentRound and the probe lands after k
/// of its rounds executed (observation.h header comment).
struct ProbeWindow {
  unsigned monitored_from = 0;  ///< first round of the monitored window
  unsigned probe_after = 0;     ///< rounds executed when the probe lands
  unsigned emit_rounds = 0;     ///< rounds the victim actually simulates
};

template <typename Traits>
[[nodiscard]] constexpr ProbeWindow probe_window_for(
    unsigned stage, unsigned probing_round) noexcept {
  ProbeWindow w;
  w.monitored_from = stage + Traits::kFirstKeyDependentRound;
  w.probe_after = w.monitored_from + probing_round;
  // The probe never consumes accesses past probe_after, so the victim
  // stops encrypting there (probing-round sweeps may ask for more rounds
  // than the cipher has; probe_after itself stays unclamped in the
  // reported observation).
  w.emit_rounds = std::min(w.probe_after, Traits::kRounds);
  return w;
}

/// Statically-typed sink of the presence-bitmap shortcut (see
/// WideObserveCore::run_presence): instead of driving cache state, it
/// records which monitored lines the window touched (one OR into a
/// 64-bit bitmap — monitored lines form one contiguous line range, so
/// membership is a subtract + compare) and counts the window's accesses
/// per cache set (the overflow detector's input).  No tag scans, no LRU
/// stamps, no per-set slot state.
class PresenceSink final {
 public:
  PresenceSink(std::uint16_t* set_counts, std::uint64_t first_line,
               unsigned n_lines, unsigned instrument_from,
               unsigned line_shift, std::uint64_t set_mask) noexcept
      : set_counts_(set_counts),
        first_line_(first_line),
        set_mask_(set_mask),
        n_lines_(n_lines),
        from_(instrument_from),
        line_shift_(line_shift) {}

  void on_round_begin(unsigned round) noexcept { live_ = round >= from_; }
  void on_access(const gift::TableAccess& access) {
    if (!live_) return;
    const std::uint64_t line = access.addr >> line_shift_;
    ++set_counts_[line & set_mask_];
    const std::uint64_t u = line - first_line_;
    if (u < n_lines_) touched_ |= std::uint64_t{1} << u;
  }
  void on_round_end(unsigned /*round*/) noexcept {}

  /// Bit i = the window touched monitored line first_line + i.
  [[nodiscard]] std::uint64_t touched() const noexcept { return touched_; }

 private:
  std::uint16_t* set_counts_;
  std::uint64_t first_line_;
  std::uint64_t set_mask_;
  std::uint64_t touched_ = 0;
  unsigned n_lines_;
  unsigned from_;
  unsigned line_shift_;
  bool live_ = false;
};

template <typename Traits>
class WideObserveCore {
 public:
  using Block = typename Traits::Block;
  using Schedule = typename Traits::TableCipher::Schedule;

  /// One lane's work order.  `instrument_from` is the first round whose
  /// accesses the presence shortcut counts: window.monitored_from when
  /// the attacker flushes right before the window (use_flush), 0
  /// otherwise (the flush then precedes round 0, so every emitted round
  /// counts).  `lane` is the backing scalar lane that serves the job when
  /// the shortcut cannot: it keys that lane's persistent cache state, so
  /// multi-trial callers must give each trial a stable slot for its
  /// lifetime.  Jobs that share a lane run against it in job order.
  struct Job {
    const Schedule* schedule = nullptr;
    Block plaintext{};
    ProbeWindow window{};
    unsigned instrument_from = 0;
    unsigned lane = 0;
  };

  /// True when the presence shortcut is exact for this configuration
  /// (LRU, no prefetcher — header comment).  Every configuration is
  /// served; unsupported ones run every job on its scalar lane.
  [[nodiscard]] static bool supported(
      const cachesim::CacheConfig& config) noexcept {
    return config.replacement == cachesim::Replacement::kLru &&
           config.prefetch_lines == 0;
  }

  WideObserveCore(const cachesim::CacheConfig& cache_config,
                  const TableLayout& layout)
      : cache_config_(cache_config),
        layout_(layout),
        cipher_(layout),
        sbox_rows_(layout.sbox_rows()),
        flush_latency_(cache_config.flush_latency),
        hit_latency_(cache_config.hit_latency),
        miss_latency_(cache_config.miss_latency),
        line_shift_(log2_pow2(cache_config.line_bytes)),
        set_mask_(cache_config.num_sets - 1) {
    lanes_.resize(WideObservationBatch::kMaxWidth);
    // Replicate FlushReloadProber's fixed reload schedule and threshold
    // exactly (same dedup, same descending order) via a scratch instance.
    cachesim::Cache scratch{cache_config};
    const FlushReloadProber prober{scratch, layout};
    rows_ = prober.rows();
    threshold_ = prober.threshold();
    // Presence-bitmap shortcut metadata (run_presence): the distinct
    // monitored lines are the reload rows.  The shortcut needs them to
    // form one contiguous line range and a per-set counter array small
    // enough to clear per observation.
    std::uint64_t min_line = ~std::uint64_t{0};
    std::uint64_t max_line = 0;
    probe_fills_.assign(cache_config.num_sets, 0);
    for (const auto& row : rows_) {
      if (!row.reload) continue;
      const std::uint64_t line = row.addr >> line_shift_;
      min_line = std::min(min_line, line);
      max_line = std::max(max_line, line);
      ++n_lines_;
      const std::uint64_t set = line & set_mask_;
      if (probe_fills_[set]++ == 0) {
        monitored_set_list_.push_back(static_cast<std::uint32_t>(set));
      }
    }
    first_line_ = min_line;
    presence_ok_ = supported(cache_config) && n_lines_ > 0 &&
                   n_lines_ <= 64 && max_line - min_line + 1 == n_lines_ &&
                   cache_config.num_sets <= 4096;
    if (presence_ok_) {
      set_counts_.assign(cache_config.num_sets, 0);
      for (const auto& row : rows_) {
        if (!row.reload) continue;
        const std::uint64_t line = row.addr >> line_shift_;
        presence_rows_[n_presence_rows_++] = {
            static_cast<std::uint8_t>(line - min_line),
            static_cast<std::uint8_t>(row.line_slot)};
      }
    }
  }

  /// Drops backing lane `lane`'s persistent trial state: the lane's
  /// scalar cache/prober are rebuilt cold, exactly like a fresh scalar
  /// platform at trial start — callers must reset a slot before reusing
  /// it for a new trial.
  void reset_lane_state(unsigned lane) {
    if (lane < lanes_.size()) lanes_[lane].reset();
  }

  /// Runs jobs[l] and stores its observation into out lane l; a job the
  /// shortcut cannot serve runs on backing lane jobs[l].lane.  When
  /// `states_out` is non-null, states_out[l] receives the victim state
  /// after window.emit_rounds rounds (the ciphertext when emit_rounds ==
  /// Traits::kRounds).
  void run(std::span<const Job> jobs, WideObservationBatch& out,
           Block* states_out = nullptr) {
    out.reset(static_cast<unsigned>(jobs.size()), 16);
    for (std::size_t l = 0; l < jobs.size(); ++l) {
      const Job& job = jobs[l];
      std::uint64_t present = 0;
      std::uint64_t cycles = 0;
      Block state;
      if (!presence_ok_ || !run_presence(job, present, cycles, state)) {
        state = run_fallback(job, present, cycles);
      }
      if (states_out != nullptr) states_out[l] = state;
      out.set(static_cast<unsigned>(l), present, job.window.probe_after,
              cycles);
    }
  }

 private:
  /// One backing lane: the scalar platform pipeline's cache + prober,
  /// owned per lane so lanes stay independent trials.
  struct FallbackLane {
    FallbackLane(const cachesim::CacheConfig& config,
                 const TableLayout& layout)
        : cache(config), prober(cache, layout) {}
    cachesim::Cache cache;
    FlushReloadProber prober;
  };

  /// Presence-bitmap shortcut.
  ///
  /// By the LRU argument in the header, if no monitored set sees more
  /// than `ways` distinct lines after the flush, no monitored line can be
  /// evicted before its reload — and then recency order and victim
  /// selection are irrelevant: a monitored line is present at the probe
  /// iff the window touched it.  The whole cache model collapses to one
  /// 64-bit "touched" bitmap (monitored lines are one contiguous line
  /// range, so membership is a subtract + compare) plus per-set access
  /// counters for the capacity test:
  ///   window accesses into set s  +  probe fills into s  <=  ways
  /// for every monitored set is a sufficient (conservative: duplicates
  /// and hits counted as fills) condition for zero evictions, checked
  /// after the encryption.  When it fails the job re-runs on its scalar
  /// lane (run_fallback), so the shortcut never changes a single bit,
  /// only the cost of producing it.  The scalar probe's latency
  /// arithmetic is reproduced exactly, including degenerate thresholds
  /// where hits and misses classify alike.
  ///
  /// Returns false on capacity-test failure.
  bool run_presence(const Job& job, std::uint64_t& present_out,
                    std::uint64_t& cycles_out, Block& state_out) {
    std::fill(set_counts_.begin(), set_counts_.end(),
              static_cast<std::uint16_t>(0));
    PresenceSink sink{set_counts_.data(), first_line_,    n_lines_,
                      job.instrument_from, line_shift_, set_mask_};
    state_out = cipher_.encrypt_with_schedule(
        job.plaintext, *job.schedule, job.window.emit_rounds, &sink);

    const unsigned ways = cache_config_.associativity;
    for (const std::uint32_t set : monitored_set_list_) {
      if (static_cast<unsigned>(set_counts_[set]) + probe_fills_[set] > ways) {
        return false;
      }
    }

    // Verdict per monitored line, replicating the prober's latency
    // classification bit-parallel: touched -> hit latency, untouched ->
    // miss latency, present iff latency <= threshold.
    const std::uint64_t touched = sink.touched();
    const std::uint64_t lines_mask =
        n_lines_ == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << n_lines_) - 1;
    const std::uint64_t hit_mask =
        hit_latency_ <= threshold_ ? ~std::uint64_t{0} : 0;
    const std::uint64_t miss_mask =
        miss_latency_ <= threshold_ ? ~std::uint64_t{0} : 0;
    const std::uint64_t line_bits =
        ((touched & hit_mask) | (~touched & miss_mask)) & lines_mask;

    // Fan the line verdicts out to line slots (the prober's indexing),
    // then to rows — bit-compatible with FlushReloadProber::probe().
    std::uint64_t line_present = 0;
    for (unsigned i = 0; i < n_presence_rows_; ++i) {
      line_present |= ((line_bits >> presence_rows_[i].line_idx) & 1u)
                      << presence_rows_[i].line_slot;
    }
    std::uint64_t present_word = 0;
    for (unsigned index = 16; index-- > 0;) {
      present_word |= ((line_present >> rows_[index].line_slot) & 1u)
                      << index;
    }

    // Cycles: the flush pass plus one timed reload per distinct line
    // (touched lines reload at hit latency, the rest at miss latency).
    const auto hits = static_cast<std::uint64_t>(std::popcount(touched));
    cycles_out = static_cast<std::uint64_t>(sbox_rows_) * flush_latency_ +
                 hits * hit_latency_ + (n_lines_ - hits) * miss_latency_;
    present_out = present_word;
    return true;
  }

  /// Scalar lane: the DirectProbePlatform::observe() pipeline, verbatim,
  /// against the job's persistent backing lane — collect the (truncated)
  /// access stream, replay rounds around the attacker's flush point,
  /// probe.  The flush lands before the monitored window exactly when
  /// instrument_from says it does (instrument_from != 0 <=> use_flush
  /// with a nonzero window start; when the window starts at round 0 both
  /// orderings are the same access sequence).
  Block run_fallback(const Job& job, std::uint64_t& present_out,
                     std::uint64_t& cycles_out) {
    FallbackLane& lane = fallback_lane(job.lane);
    sink_.clear();
    const Block state = cipher_.encrypt_with_schedule(
        job.plaintext, *job.schedule, job.window.emit_rounds, &sink_);

    constexpr unsigned per_round = Traits::kAccessesPerRound;
    auto replay_rounds = [&](unsigned from, unsigned to) {
      for (std::size_t i = static_cast<std::size_t>(from) * per_round;
           i < static_cast<std::size_t>(to) * per_round &&
           i < sink_.accesses().size();
           ++i) {
        lane.cache.touch(sink_.accesses()[i].addr);
      }
    };

    std::uint64_t cycles = 0;
    const bool flush_before_window = job.instrument_from != 0;
    if (!flush_before_window) cycles += lane.prober.prepare();
    replay_rounds(0, job.window.monitored_from);
    if (flush_before_window) cycles += lane.prober.prepare();
    replay_rounds(job.window.monitored_from, job.window.probe_after);

    const ProbeResult probe = lane.prober.probe();
    present_out = probe.row_present.word();
    cycles_out = cycles + probe.cycles;
    return state;
  }

  [[nodiscard]] FallbackLane& fallback_lane(unsigned slot) {
    assert(slot < lanes_.size());
    if (lanes_[slot] == nullptr) {
      lanes_[slot] = std::make_unique<FallbackLane>(cache_config_, layout_);
    }
    return *lanes_[slot];
  }

  cachesim::CacheConfig cache_config_;
  TableLayout layout_;
  typename Traits::TableCipher cipher_;
  unsigned sbox_rows_;
  std::uint64_t flush_latency_;
  std::uint64_t hit_latency_;
  std::uint64_t miss_latency_;
  unsigned line_shift_;
  std::uint64_t set_mask_;
  std::uint64_t threshold_ = 0;
  std::array<FlushReloadProber::RowInfo, LineSet::kMaxBits> rows_{};
  /// Presence-bitmap shortcut state (run_presence; engaged iff
  /// presence_ok_).  presence_rows_ holds one entry per distinct
  /// monitored line (its index in the contiguous line range and the
  /// prober's line slot); probe_fills_[s] counts the probe's potential
  /// fills into set s; set_counts_ is the per-observation access-counter
  /// scratch; monitored_set_list_ the sets the capacity test inspects.
  struct PresenceRow {
    std::uint8_t line_idx = 0;
    std::uint8_t line_slot = 0;
  };
  std::array<PresenceRow, LineSet::kMaxBits> presence_rows_{};
  unsigned n_presence_rows_ = 0;
  std::uint64_t first_line_ = 0;
  unsigned n_lines_ = 0;
  bool presence_ok_ = false;
  std::vector<std::uint16_t> probe_fills_;
  std::vector<std::uint16_t> set_counts_;
  std::vector<std::uint32_t> monitored_set_list_;
  /// Per-backing-lane scalar pipelines, created lazily, reset per trial
  /// via reset_lane_state().
  std::vector<std::unique_ptr<FallbackLane>> lanes_;
  /// Shared collect-then-replay scratch of the scalar lanes.
  gift::VectorTraceSink sink_;
};

}  // namespace grinch::target
