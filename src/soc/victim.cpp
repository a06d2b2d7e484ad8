#include "soc/victim.h"

#include <algorithm>
#include <cassert>

namespace grinch::soc {

VictimProcess::VictimProcess(const gift::TableGift64& cipher,
                             cachesim::Cache& cache,
                             const VictimCostModel& cost)
    : cipher_(&cipher), cache_(&cache), cost_(cost) {}

void VictimProcess::begin_encryption(std::uint64_t plaintext,
                                     const Key128& key,
                                     std::uint64_t start_cycle,
                                     unsigned max_rounds) {
  key_ = key;
  plaintext_ = plaintext;
  round_ = 0;
  pos_ = 0;
  cycle_ = start_cycle;
  start_cycle_ = start_cycle;
  avail_rounds_ = std::min(max_rounds, gift::Gift64::kRounds);
  if (!schedule_valid_ || key != schedule_key_) {
    schedule_ = cipher_->make_schedule(key);
    schedule_key_ = key;
    schedule_valid_ = true;
  }
  // Precompute the logical access stream up to avail_rounds_ (it depends
  // only on the plaintext/key, never on cache state); the platform then
  // replays it against the cache with timing as it advances the victim.
  // The sink and trace buffers are cleared, not reallocated, so repeated
  // encryptions through one VictimProcess are allocation-free.
  sink_.clear();
  state_ =
      cipher_->encrypt_with_schedule(plaintext, schedule_, avail_rounds_,
                                     &sink_);
  full_ct_valid_ = avail_rounds_ >= gift::Gift64::kRounds;
  if (full_ct_valid_) full_ct_ = state_;
  trace_.clear();
  trace_.reserve(sink_.accesses().size());
}

std::uint64_t VictimProcess::full_ciphertext() const {
  if (!full_ct_valid_) {
    full_ct_ = cipher_->encrypt_with_schedule(plaintext_, schedule_,
                                              gift::Gift64::kRounds);
    full_ct_valid_ = true;
  }
  return full_ct_;
}

unsigned VictimProcess::accesses_into_round() const noexcept {
  return static_cast<unsigned>(
      pos_ - static_cast<std::size_t>(round_) *
                 gift::TableGift64::accesses_per_round());
}

void VictimProcess::step() {
  assert(!done());
  const unsigned per_round = gift::TableGift64::accesses_per_round();
  if (accesses_into_round() < per_round) {
    const gift::TableAccess& a = sink_.accesses()[pos_];
    cycle_ += cost_.cycles_per_access_setup;
    const cachesim::AccessResult r = cache_->access(a.addr);
    cycle_ += r.latency;
    trace_.push_back(TimedAccess{cycle_, a, r.hit});
    ++pos_;
  }
  if (accesses_into_round() == per_round) {
    cycle_ += cost_.cycles_round_tail + cost_.cycles_round_overhead;
    ++round_;
  }
}

std::uint64_t VictimProcess::run_until_round(unsigned rounds) {
  while (!done() && round_ < rounds) step();
  return cycle_;
}

std::uint64_t VictimProcess::run_until_cycle(std::uint64_t limit) {
  while (!done() && cycle_ < limit) step();
  return cycle_;
}

std::uint64_t VictimProcess::finish() {
  run_until_round(avail_rounds_);
  return full_ciphertext();
}

double VictimProcess::cycles_per_round() const noexcept {
  if (round_ == 0) return 0.0;
  return static_cast<double>(cycle_ - start_cycle_) / round_;
}

}  // namespace grinch::soc
