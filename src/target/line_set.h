// Fixed-width bitset over monitored cache lines / S-Box indices.
//
// Observations are produced hundreds of thousands of times per figure, so
// their line-presence sets must not touch the heap.  Every monitored
// quantity in the pipeline is tiny — 16 S-Box rows, at most 64 table
// accesses per round — so one 64-bit word covers every use.  LineSet is a
// drop-in for the std::vector<bool> the pipeline used to carry: same
// assign/size/operator[] surface (including a writable proxy), plus the
// word() accessor that lets the elimination engine fold a whole
// observation into candidate masks with word-wise ANDs (recovery_engine.h).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

namespace grinch::target {

class LineSet {
 public:
  static constexpr unsigned kMaxBits = 64;

  /// Writable element proxy so `set[i] = true` works like vector<bool>.
  class reference {
   public:
    reference(LineSet& owner, unsigned index) noexcept
        : owner_(&owner), index_(index) {}
    reference& operator=(bool value) noexcept {
      owner_->set(index_, value);
      return *this;
    }
    reference& operator=(const reference& other) noexcept {
      owner_->set(index_, static_cast<bool>(other));
      return *this;
    }
    operator bool() const noexcept { return owner_->test(index_); }

   private:
    LineSet* owner_;
    unsigned index_;
  };

  constexpr LineSet() noexcept = default;
  explicit constexpr LineSet(unsigned size, bool value = false) noexcept {
    assign(size, value);
  }

  /// vector<bool>-compatible reset: `size` entries, all set to `value`.
  constexpr void assign(unsigned size, bool value) noexcept {
    assert(size <= kMaxBits);
    size_ = size;
    bits_ = value ? mask_for(size) : 0;
  }

  [[nodiscard]] constexpr unsigned size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] constexpr bool test(unsigned index) const noexcept {
    assert(index < size_);
    return (bits_ >> index) & 1u;
  }
  constexpr void set(unsigned index, bool value = true) noexcept {
    assert(index < size_);
    const std::uint64_t bit = std::uint64_t{1} << index;
    bits_ = value ? (bits_ | bit) : (bits_ & ~bit);
  }

  [[nodiscard]] constexpr bool operator[](unsigned index) const noexcept {
    return test(index);
  }
  [[nodiscard]] reference operator[](unsigned index) noexcept {
    assert(index < size_);
    return reference{*this, index};
  }

  /// All bits as one word (bit i == element i); bits >= size() are zero.
  [[nodiscard]] constexpr std::uint64_t word() const noexcept { return bits_; }

  /// Rebuilds a set directly from a word (bits >= size are dropped).
  [[nodiscard]] static constexpr LineSet from_word(std::uint64_t bits,
                                                   unsigned size) noexcept {
    assert(size <= kMaxBits);
    LineSet s;
    s.size_ = size;
    s.bits_ = bits & mask_for(size);
    return s;
  }

  /// Number of set entries.
  [[nodiscard]] constexpr unsigned count() const noexcept {
    return static_cast<unsigned>(std::popcount(bits_));
  }

  friend constexpr bool operator==(const LineSet&, const LineSet&) noexcept =
      default;

 private:
  static constexpr std::uint64_t mask_for(unsigned size) noexcept {
    return size >= kMaxBits ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << size) - 1;
  }

  std::uint64_t bits_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace grinch::target
