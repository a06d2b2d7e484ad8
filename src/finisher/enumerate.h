// Maximum-likelihood-order enumeration of the residual key space.
//
// The finisher models each unresolved (stage, segment) as a *slot* whose
// surviving candidates carry a non-negative integer penalty (its
// presence-count deficit versus the slot's best candidate — see
// likelihood.h).  A residual key assignment picks one candidate per slot;
// its joint penalty is the sum of the slot penalties.  PenaltyEnumerator
// yields every assignment exactly once, ordered by
//
//   (total penalty ascending, rank vector lexicographically ascending),
//
// i.e. most-likely-first with a deterministic tie order.  This is the
// classic "sorted sums" frontier walk specialised to small per-slot
// alphabets: enumerate one penalty level at a time with
// a depth-first scan whose per-node rank loop breaks at the first
// overshooting delta (deltas are sorted ascending per slot), recording
// `prefix + delta` as a candidate for the next level.  Infeasible
// branches are pruned with a suffix-max bound.
//
// Completeness: for the minimum achievable total T greater than the
// current level L, walk the lexicographically smallest assignment A
// achieving T.  Its first node not visited by the level-L scan fails
// either because the rank loop broke at an overshoot r' <= A's rank
// (recording prefix + delta(r') in (L, T]) or because A's rank itself
// overshoots (same record); the absorb prune can never skip A's rank
// while it is affordable, because A's own suffix achieves T - prefix <=
// suffix_max.  So every level records a next-level candidate <= T, levels
// strictly increase through a finite value set, and no achievable total
// is ever skipped.
//
// Memory is O(slots): the state is a rank prefix and its running penalty.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace grinch::finisher {

class PenaltyEnumerator {
 public:
  /// `slot_deltas[j]` holds slot j's candidate penalties sorted
  /// ascending (rank order); slot_deltas[j][0] is the slot's
  /// maximum-likelihood choice.  An empty slot makes the space empty.
  explicit PenaltyEnumerator(std::vector<std::vector<std::uint32_t>> deltas)
      : deltas_(std::move(deltas)) {
    suffix_max_.assign(deltas_.size() + 1, 0);
    for (std::size_t j = deltas_.size(); j-- > 0;) {
      if (deltas_[j].empty()) {
        exhausted_ = true;  // no candidate survives in this slot
        return;
      }
      suffix_max_[j] = suffix_max_[j + 1] + deltas_[j].back();
    }
    choice_.reserve(deltas_.size());
  }

  /// Advances to the next assignment in (penalty, lexicographic) order.
  /// Fills `out` with one rank per slot and returns true, or returns
  /// false once the space is exhausted.
  bool next(std::vector<std::uint32_t>& out) {
    if (exhausted_) return false;
    if (deltas_.empty()) {  // single empty assignment
      exhausted_ = true;
      out.clear();
      return true;
    }
    std::uint64_t r = 0;
    if (emitted_) {  // backtrack off the just-emitted full assignment
      r = pop() + 1;
      emitted_ = false;
    }
    for (;;) {
      const std::size_t depth = choice_.size();
      const std::vector<std::uint32_t>& d = deltas_[depth];
      const std::uint64_t remaining = level_ - prefix_;
      bool descended = false;
      for (; r < d.size(); ++r) {
        const std::uint64_t dr = d[r];
        if (dr > remaining) {
          // First overshoot (deltas ascend): the smallest total above
          // the current level reachable by raising this slot.
          next_level_ = std::min(next_level_, prefix_ + dr);
          break;
        }
        if (remaining - dr > suffix_max_[depth + 1]) continue;  // unabsorbable
        choice_.push_back(static_cast<std::uint32_t>(r));
        prefix_ += dr;
        descended = true;
        break;
      }
      if (descended) {
        if (choice_.size() == deltas_.size()) {
          // suffix_max_[n] == 0 forced an exact hit at the last slot.
          out = choice_;
          emitted_ = true;
          return true;
        }
        r = 0;
        continue;
      }
      if (choice_.empty()) {
        // Level fully enumerated; advance to the next achievable one.
        if (next_level_ == kNoLevel) {
          exhausted_ = true;
          return false;
        }
        level_ = next_level_;
        next_level_ = kNoLevel;
        r = 0;
        continue;
      }
      r = pop() + 1;
    }
  }

  /// Joint penalty of the most recently emitted assignment (the current
  /// enumeration level).
  [[nodiscard]] std::uint64_t penalty() const noexcept { return level_; }

  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }

  /// log2 of the assignment-space size.
  [[nodiscard]] double space_bits() const {
    double bits = 0.0;
    for (const std::vector<std::uint32_t>& d : deltas_) {
      bits += std::log2(static_cast<double>(d.empty() ? 1 : d.size()));
    }
    return bits;
  }

 private:
  static constexpr std::uint64_t kNoLevel =
      std::numeric_limits<std::uint64_t>::max();

  std::uint64_t pop() {
    const std::uint32_t rank = choice_.back();
    prefix_ -= deltas_[choice_.size() - 1][rank];
    choice_.pop_back();
    return rank;
  }

  std::vector<std::vector<std::uint32_t>> deltas_;
  std::vector<std::uint64_t> suffix_max_;
  std::vector<std::uint32_t> choice_;
  std::uint64_t prefix_ = 0;
  std::uint64_t level_ = 0;
  std::uint64_t next_level_ = kNoLevel;
  bool emitted_ = false;
  bool exhausted_ = false;
};

}  // namespace grinch::finisher
