#include "gift/key_schedule.h"

#include "common/bits.h"

namespace grinch::gift {

Key128 update_key_state(const Key128& k) noexcept {
  Key128 next;
  // (k7..k0) <- (k1>>>2, k0>>>12, k7, k6, k5, k4, k3, k2)
  for (unsigned w = 0; w < 6; ++w) next = next.with_word16(w, k.word16(w + 2));
  next = next.with_word16(
      6, static_cast<std::uint16_t>(rotr(k.word16(0), 12, 16)));
  next = next.with_word16(
      7, static_cast<std::uint16_t>(rotr(k.word16(1), 2, 16)));
  return next;
}

Key128 revert_key_state(const Key128& k) noexcept {
  Key128 prev;
  for (unsigned w = 0; w < 6; ++w) prev = prev.with_word16(w + 2, k.word16(w));
  prev = prev.with_word16(
      0, static_cast<std::uint16_t>(rotl(k.word16(6), 12, 16)));
  prev = prev.with_word16(
      1, static_cast<std::uint16_t>(rotl(k.word16(7), 2, 16)));
  return prev;
}

RoundKey64 extract_round_key64(const Key128& k) noexcept {
  return RoundKey64{k.word16(1), k.word16(0)};
}

RoundKey128 extract_round_key128(const Key128& k) noexcept {
  const std::uint32_t u =
      (static_cast<std::uint32_t>(k.word16(5)) << 16) | k.word16(4);
  const std::uint32_t v =
      (static_cast<std::uint32_t>(k.word16(1)) << 16) | k.word16(0);
  return RoundKey128{u, v};
}

KeySchedule::KeySchedule(const Key128& key, unsigned rounds) {
  states_.reserve(rounds);
  Key128 k = key;
  for (unsigned r = 0; r < rounds; ++r) {
    states_.push_back(k);
    k = update_key_state(k);
  }
}

}  // namespace grinch::gift
