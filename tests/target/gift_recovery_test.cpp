// GiftRecovery's kernels at both GIFT widths: Algorithm 1 (target bits),
// Algorithm 2 with the Step-5 inversion (the crafter), the pre-key
// predictor and the Step-4 key assembly.  Most tests run their body for
// Gift64Recovery and Gift128Recovery; the draw-stream check runs once per
// width under its own name.  Expected bit positions come from the
// cipher's own AddRoundKey and PermBits, never from GiftWidth, so a wrong
// per-width constant fails here; the GIFT-128 cases at the end also
// write the positions out as numbers.
#include "target/gift_recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "gift/gift128.h"
#include "gift/key_schedule.h"
#include "gift/permutation.h"
#include "gift/sbox.h"
#include "oracle/layer_oracle.h"
#include "target/gift128_recovery.h"
#include "target/gift64_recovery.h"

namespace grinch::target {
namespace {

template <typename R, typename Check>
void run_width(Check& check) {
  SCOPED_TRACE(R::kName);
  check.template operator()<R>();
}

/// Runs `check.template operator()<R>()` for both GIFT widths.
template <typename Check>
void for_both_widths(Check check) {
  run_width<Gift64Recovery>(check);
  run_width<Gift128Recovery>(check);
}

template <typename Block>
unsigned block_bit(const Block& b, unsigned pos) {
  if constexpr (std::is_same_v<Block, std::uint64_t>) {
    return bit(b, pos);
  } else {
    return b.bit(pos);
  }
}

template <typename Block>
unsigned block_nibble(const Block& b, unsigned s) {
  if constexpr (std::is_same_v<Block, std::uint64_t>) {
    return nibble(b, s);
  } else {
    return b.nibble(s);
  }
}

template <typename Block>
Block with_block_nibble(Block b, unsigned s, unsigned value) {
  if constexpr (std::is_same_v<Block, std::uint64_t>) {
    return with_nibble(b, s, value);
  } else {
    std::uint64_t& word = s < 16 ? b.lo : b.hi;
    word = with_nibble(word, s % 16, value);
    return b;
  }
}

/// The state bit round-key bit V_s (or U_s, when `u`) lands on, read off
/// the cipher's AddRoundKey.
template <typename R>
unsigned landing_bit(unsigned s, bool u) {
  typename R::StageKey rk{};
  (u ? rk.u : rk.v) = static_cast<decltype(rk.u)>(1u << s);
  const typename R::Block state =
      R::Cipher::add_round_key(typename R::Block{}, rk);
  for (unsigned p = 0; p < 4 * R::kSegments; ++p) {
    if (block_bit(state, p)) return p;
  }
  ADD_FAILURE() << "round-key bit " << s << " lands nowhere";
  return 0;
}

/// The nibble bit V (or U, when `u`) sits on, in every segment.
template <typename R>
unsigned key_bit(bool u) {
  return landing_bit<R>(0, u) % 4;
}

/// Both key-facing bits of a nibble.
template <typename R>
unsigned key_facing_mask() {
  return (1u << key_bit<R>(false)) | (1u << key_bit<R>(true));
}

template <typename R>
const gift::BitPermutation& permutation() {
  return R::kSegments == 16 ? gift::gift64_permutation()
                            : gift::gift128_permutation();
}

/// Round keys 0..n-1 of `key`.
template <typename R>
std::vector<typename R::StageKey> round_keys(const Key128& key, unsigned n) {
  const gift::KeySchedule sched{key, n};
  std::vector<typename R::StageKey> keys;
  for (unsigned r = 0; r < n; ++r) {
    if constexpr (R::kSegments == 16) {
      keys.push_back(sched.round_key64(r));
    } else {
      keys.push_back(sched.round_key128(r));
    }
  }
  return keys;
}

/// The key pair c = (u << 1) | v of segment `s`.
template <typename StageKey>
unsigned key_pair(const StageKey& rk, unsigned s) {
  return (((rk.u >> s) & 1u) << 1) | ((rk.v >> s) & 1u);
}

// --- Reference formulas the kernels are written from -------------------

/// The state entering AddRoundKey of (0-based) round `stage`.
template <typename R>
typename R::Block pre_key_state(
    typename R::Block pt, const std::vector<typename R::StageKey>& keys,
    unsigned stage) {
  for (unsigned r = 0; r < stage; ++r) {
    pt = R::Cipher::round_function(pt, keys[r], r);
  }
  return R::Cipher::round_function(pt, typename R::StageKey{}, stage);
}

/// Pulls a round-`stage` input back to a plaintext through rounds
/// stage-1 .. 0.
template <typename R>
typename R::Block invert_to_plaintext(
    typename R::Block state, const std::vector<typename R::StageKey>& keys,
    unsigned stage) {
  for (unsigned r = stage; r-- > 0;) {
    state = R::Cipher::inverse_round_function(state, keys[r], r);
  }
  return state;
}

/// Paper Step 4 with both key-facing pre-key bits pinned to 1:
/// Key[i] <- NOT Index[a].  Returns c = (u << 1) | v.
template <typename R>
unsigned reverse_engineer_pinned(unsigned index) {
  const unsigned v = (~index >> key_bit<R>(false)) & 1u;
  const unsigned u = (~index >> key_bit<R>(true)) & 1u;
  return (u << 1) | v;
}

/// General Step 4: c is the key-facing bits of pre_key_nibble XOR index.
template <typename R>
unsigned reverse_engineer(unsigned pre_key_nibble, unsigned index) {
  const unsigned d = pre_key_nibble ^ index;
  return (((d >> key_bit<R>(true)) & 1u) << 1) |
         ((d >> key_bit<R>(false)) & 1u);
}

// --- Algorithm 1 --------------------------------------------------------

TEST(TargetBits, SourceBitsAreKeyFacingPositionsPrePermutation) {
  for_both_widths([]<typename R>() {
    const gift::BitPermutation& perm = permutation<R>();
    for (unsigned s = 0; s < R::kSegments; ++s) {
      const auto& t = R::kTargetBits[s];
      EXPECT_EQ(perm.forward(t.bit_a), landing_bit<R>(s, false));
      EXPECT_EQ(perm.forward(t.bit_b), landing_bit<R>(s, true));
      EXPECT_EQ(t.seg_a, t.bit_a / 4);
      EXPECT_EQ(t.seg_b, t.bit_b / 4);
    }
  });
}

TEST(TargetBits, SourceSegmentsAreDistinct) {
  // PermBits spreads segment bits, so the two pinned bits always come
  // from two different S-Boxes.
  for_both_widths([]<typename R>() {
    for (unsigned s = 0; s < R::kSegments; ++s) {
      EXPECT_NE(R::kTargetBits[s].seg_a, R::kTargetBits[s].seg_b)
          << "segment " << s;
    }
  });
}

TEST(TargetBits, ModFourResidueIsPreserved) {
  // The GIFT permutation preserves i mod 4, so bit_a is always the V
  // slot and bit_b the U slot of its source segment.
  for_both_widths([]<typename R>() {
    for (unsigned s = 0; s < R::kSegments; ++s) {
      EXPECT_EQ(R::kTargetBits[s].bit_a % 4, key_bit<R>(false));
      EXPECT_EQ(R::kTargetBits[s].bit_b % 4, key_bit<R>(true));
    }
  });
}

TEST(TargetBits, ListAForcesOutputBitOne) {
  for_both_widths([]<typename R>() {
    for (unsigned s = 0; s < R::kSegments; ++s) {
      const auto& t = R::kTargetBits[s];
      for (unsigned x : t.list_a) {
        EXPECT_EQ((gift::gift_sbox().apply(x) >> (t.bit_a % 4)) & 1u, 1u);
      }
    }
  });
}

TEST(TargetBits, ListBForcesOutputBitOne) {
  for_both_widths([]<typename R>() {
    for (unsigned s = 0; s < R::kSegments; ++s) {
      const auto& t = R::kTargetBits[s];
      for (unsigned x : t.list_b) {
        EXPECT_EQ((gift::gift_sbox().apply(x) >> (t.bit_b % 4)) & 1u, 1u);
      }
    }
  });
}

TEST(TargetBits, ListsAreExactPreimages) {
  // Anything NOT in a list must force a 0: the lists are complete.
  for_both_widths([]<typename R>() {
    const auto& t = R::kTargetBits[3];
    for (unsigned x = 0; x < 16; ++x) {
      const unsigned y = gift::gift_sbox().apply(x);
      EXPECT_EQ(std::count(t.list_a.begin(), t.list_a.end(), x) == 1,
                ((y >> (t.bit_a % 4)) & 1u) == 1u)
          << "x=" << x;
      EXPECT_EQ(std::count(t.list_b.begin(), t.list_b.end(), x) == 1,
                ((y >> (t.bit_b % 4)) & 1u) == 1u)
          << "x=" << x;
    }
  });
}

TEST(TargetBits, ListsHaveEightEntriesForBalancedSBox) {
  // GS is balanced: every output bit is 1 for exactly 8 of 16 inputs.
  for_both_widths([]<typename R>() {
    for (unsigned s = 0; s < R::kSegments; ++s) {
      const auto& t = R::kTargetBits[s];
      EXPECT_EQ(std::set<unsigned>(t.list_a.begin(), t.list_a.end()).size(),
                8u);
      EXPECT_EQ(std::set<unsigned>(t.list_b.begin(), t.list_b.end()).size(),
                8u);
    }
  });
}

TEST(TargetBits, EndToEndPinnedBitsSurviveRoundOne) {
  // Through the real cipher round: a state whose seg_a / seg_b are drawn
  // from the lists has 1s on segment s's key-facing bits before the key
  // is added, whatever the other segments hold.
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{0xABC};
    for (unsigned s = 0; s < R::kSegments; ++s) {
      const auto& t = R::kTargetBits[s];
      for (int trial = 0; trial < 20; ++trial) {
        typename R::Block state = R::random_block(rng);
        state = with_block_nibble(state, t.seg_a,
                                  t.list_a[rng.uniform(t.list_a.size())]);
        state = with_block_nibble(state, t.seg_b,
                                  t.list_b[rng.uniform(t.list_b.size())]);
        const typename R::Block after =
            R::Cipher::round_function(state, typename R::StageKey{}, 0);
        EXPECT_EQ(block_bit(after, landing_bit<R>(s, false)), 1u);
        EXPECT_EQ(block_bit(after, landing_bit<R>(s, true)), 1u);
      }
    }
  });
}

// --- Algorithm 2 and Step 5 ---------------------------------------------

TEST(Crafter, StateHasListValuesInSourceSegments) {
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{1};
    typename R::Crafter crafter{rng};
    const auto& t = R::kTargetBits[5];
    for (int i = 0; i < 50; ++i) {
      const typename R::Block state = crafter.craft(5, {}, 0);
      const unsigned va = block_nibble(state, t.seg_a);
      const unsigned vb = block_nibble(state, t.seg_b);
      EXPECT_NE(std::find(t.list_a.begin(), t.list_a.end(), va),
                t.list_a.end());
      EXPECT_NE(std::find(t.list_b.begin(), t.list_b.end(), vb),
                t.list_b.end());
    }
  });
}

TEST(Crafter, StageZeroPlaintextPinsPreKeyBits) {
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{2};
    typename R::Crafter crafter{rng};
    const unsigned mask = key_facing_mask<R>();
    for (unsigned s = 0; s < R::kSegments; ++s) {
      const auto n = R::pre_key_nibbles(crafter.craft(s, {}, 0), {}, 0);
      EXPECT_EQ(n[s] & mask, mask) << "segment " << s;
    }
  });
}

TEST(Crafter, DeepStagePlaintextPinsPreKeyBits) {
  // Step 5: with the earlier round keys known, crafting still pins the
  // monitored segment at every later stage.
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{3};
    typename R::Crafter crafter{rng};
    const auto keys = round_keys<R>(rng.key128(), R::kStages);
    const unsigned mask = key_facing_mask<R>();
    for (unsigned stage = 1; stage < R::kStages; ++stage) {
      for (unsigned s = 0; s < R::kSegments; s += 5) {
        const auto n =
            R::pre_key_nibbles(crafter.craft(s, keys, stage), keys, stage);
        EXPECT_EQ(n[s] & mask, mask) << "stage " << stage << " seg " << s;
      }
    }
  });
}

TEST(Crafter, InversionRoundTripsThroughTheCipher) {
  // From one generator state, a stage-0 craft is the round input and a
  // stage-a craft the plaintext that the real cipher's first a rounds
  // carry to it.
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{4};
    const Key128 key = rng.key128();
    const auto keys = round_keys<R>(key, R::kStages);
    for (unsigned stage = 0; stage < R::kStages; ++stage) {
      Xoshiro256 input_rng{rng.next()};
      Xoshiro256 plaintext_rng = input_rng;
      typename R::Crafter input_crafter{input_rng};
      typename R::Crafter plaintext_crafter{plaintext_rng};
      const typename R::Block desired = input_crafter.craft(7, {}, 0);
      const typename R::Block pt = plaintext_crafter.craft(7, keys, stage);
      EXPECT_EQ(R::Cipher::encrypt_rounds(pt, key, stage), desired)
          << "stage " << stage;
      EXPECT_EQ(invert_to_plaintext<R>(desired, keys, stage), pt)
          << "stage " << stage;
    }
  });
}

TEST(Crafter, CraftedPlaintextsVary) {
  // The non-pinned segments are randomised: consecutive crafts must not
  // repeat (they drive the candidate elimination diversity).
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{5};
    typename R::Crafter crafter{rng};
    const typename R::Block a = crafter.craft(0, {}, 0);
    const typename R::Block b = crafter.craft(0, {}, 0);
    EXPECT_FALSE(a == b);
  });
}

TEST(Crafter, PinnedIndexHasKnownLowBitsUnderTrueKey) {
  // The monitored S-Box index under the true key holds NOT v and NOT u on
  // the key-facing bits: the paper's Key[i] <- NOT Index[a] inversion.
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{6};
    typename R::Crafter crafter{rng};
    const Key128 key = rng.key128();
    const typename R::StageKey rk0 = round_keys<R>(key, 1)[0];
    for (unsigned s = 0; s < R::kSegments; ++s) {
      const typename R::Block state1 =
          R::Cipher::encrypt_rounds(crafter.craft(s, {}, 0), key, 1);
      const unsigned index = block_nibble(state1, s);
      EXPECT_EQ((index >> key_bit<R>(false)) & 1u, 1u ^ ((rk0.v >> s) & 1u));
      EXPECT_EQ((index >> key_bit<R>(true)) & 1u, 1u ^ ((rk0.u >> s) & 1u));
      EXPECT_EQ(reverse_engineer_pinned<R>(index), key_pair(rk0, s));
    }
  });
}

/// The crafter's draws before they moved into registers: Algorithm 1's
/// lists rebuilt from the runtime S-Box and permutation, one uniform()
/// pick per constrained segment and one nibble() per free segment.
template <typename R>
class UniformLoopCrafter {
 public:
  explicit UniformLoopCrafter(unsigned segment) {
    const gift::BitPermutation& perm = permutation<R>();
    const unsigned bit_a = perm.inverse(landing_bit<R>(segment, false));
    const unsigned bit_b = perm.inverse(landing_bit<R>(segment, true));
    seg_a_ = bit_a / 4;
    seg_b_ = bit_b / 4;
    for (unsigned x = 0; x < 16; ++x) {
      const unsigned y = gift::gift_sbox().apply(x);
      if ((y >> (bit_a % 4)) & 1u) list_a_.push_back(x);
      if ((y >> (bit_b % 4)) & 1u) list_b_.push_back(x);
    }
  }

  typename R::Block craft_state(Xoshiro256& rng) const {
    typename R::Block state{};
    for (unsigned s = 0; s < R::kSegments; ++s) {
      unsigned value;
      if (s == seg_a_) {
        value = list_a_[rng.uniform(list_a_.size())];
      } else if (s == seg_b_) {
        value = list_b_[rng.uniform(list_b_.size())];
      } else {
        value = rng.nibble();
      }
      state = with_block_nibble(state, s, value);
    }
    return state;
  }

 private:
  unsigned seg_a_ = 0;
  unsigned seg_b_ = 0;
  std::vector<unsigned> list_a_;
  std::vector<unsigned> list_b_;
};

/// The crafter draws once per segment from a register copy of the
/// generator.  After 10^5 crafts per segment and stage, the plaintexts
/// and the generator state equal those of the loop it replaced.
template <typename R>
void expect_draw_stream_matches_uniform_loop(std::uint64_t key_seed,
                                             std::uint64_t seed) {
  Xoshiro256 key_rng{key_seed};
  using Word = decltype(R::StageKey::u);
  std::vector<typename R::StageKey> recovered(R::kStages - 1);
  for (auto& rk : recovered) {
    rk.u = static_cast<Word>(key_rng.next());
    rk.v = static_cast<Word>(key_rng.next());
  }
  for (unsigned stage = 0; stage < R::kStages; ++stage) {
    for (unsigned s = 0; s < R::kSegments; ++s) {
      const UniformLoopCrafter<R> reference{s};
      Xoshiro256 rng{seed + R::kSegments * stage + s};
      Xoshiro256 reference_rng = rng;
      typename R::Crafter crafter{rng};
      for (int i = 0; i < 100000; ++i) {
        const typename R::Block want = invert_to_plaintext<R>(
            reference.craft_state(reference_rng), recovered, stage);
        ASSERT_EQ(crafter.craft(s, recovered, stage), want)
            << "segment " << s << " stage " << stage << " craft " << i;
      }
      ASSERT_TRUE(rng == reference_rng)
          << "segment " << s << " stage " << stage;
    }
  }
}

TEST(Crafter, DrawStreamMatchesUniformLoop) {
  expect_draw_stream_matches_uniform_loop<Gift64Recovery>(0x57AE, 0x5EED);
}

TEST(Crafter128, DrawStreamMatchesUniformLoop) {
  expect_draw_stream_matches_uniform_loop<Gift128Recovery>(0x57AF, 0x5EEE);
}

// --- The pre-key predictor ----------------------------------------------

TEST(Predictor, IndexEqualsPreKeyNibbleXorKeyBits) {
  // The GRINCH identity: the monitored index is the pre-key nibble with
  // the segment's key pair XORed onto its key-facing bits.
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{1};
    for (int trial = 0; trial < 50; ++trial) {
      const Key128 key = rng.key128();
      const typename R::Block pt = R::random_block(rng);
      const typename R::StageKey rk0 = round_keys<R>(key, 1)[0];
      const auto n = R::pre_key_nibbles(pt, {}, 0);
      const typename R::Block state1 = R::Cipher::encrypt_rounds(pt, key, 1);
      for (unsigned s = 0; s < R::kSegments; ++s) {
        EXPECT_EQ(block_nibble(state1, s),
                  R::candidate_index(n[s], key_pair(rk0, s)))
            << "segment " << s;
      }
    }
  });
}

TEST(Predictor, DeepStageIdentityHoldsWithKnownKeys) {
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{2};
    const Key128 key = rng.key128();
    const auto keys = round_keys<R>(key, R::kStages + 1);
    const typename R::Block pt = R::random_block(rng);
    for (unsigned stage = 0; stage < R::kStages; ++stage) {
      const auto n = R::pre_key_nibbles(pt, keys, stage);
      const typename R::Block state =
          R::Cipher::encrypt_rounds(pt, key, stage + 1);
      for (unsigned s = 0; s < R::kSegments; ++s) {
        EXPECT_EQ(block_nibble(state, s),
                  R::candidate_index(n[s], key_pair(keys[stage], s)))
            << "stage " << stage << " segment " << s;
      }
    }
  });
}

TEST(Predictor, PreKeyStateIsKeyIndependentAtStageZero) {
  // Round 0's S-Box and PermBits involve no key: stripping round key 0
  // from the real round-0 output leaves the same state under every key
  // (GRINCH's enabling property), and the predictor reads its nibbles.
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{3};
    const typename R::Block pt = R::random_block(rng);
    const typename R::Block want = pre_key_state<R>(pt, {}, 0);
    for (int trial = 0; trial < 4; ++trial) {
      const Key128 key = rng.key128();
      EXPECT_EQ(R::Cipher::add_round_key(R::Cipher::encrypt_rounds(pt, key, 1),
                                         round_keys<R>(key, 1)[0]),
                want);
    }
    const auto n = R::pre_key_nibbles(pt, {}, 0);
    for (unsigned s = 0; s < R::kSegments; ++s) {
      EXPECT_EQ(n[s], block_nibble(want, s)) << "segment " << s;
    }
  });
}

TEST(Predictor, KeyFacingBitsUnaffectedByConstants) {
  // Constants only touch bit 3 of a segment (and the MSB), never the
  // key-facing bits the attack pins (asserted because the whole crafting
  // strategy depends on it).
  for_both_widths([]<typename R>() {
    for (unsigned round = 0; round < R::kRounds; ++round) {
      const gift::State128 delta = oracle::constant_bits(
          gift::round_constant(round), 4 * R::kSegments - 1);
      for (unsigned s = 0; s < R::kSegments; ++s) {
        EXPECT_EQ(delta.bit(landing_bit<R>(s, false)), 0u);
        EXPECT_EQ(delta.bit(landing_bit<R>(s, true)), 0u);
      }
    }
  });
}

// --- Step 4 -------------------------------------------------------------

TEST(ReverseEngineer, PinnedRuleInvertsLowBits) {
  // Paper Step 4: with both pre-key bits pinned to 1,
  // Key[i] <- NOT Index[a] and Key[j] <- NOT Index[b].
  for_both_widths([]<typename R>() {
    for (unsigned index = 0; index < 16; ++index) {
      const unsigned c = reverse_engineer_pinned<R>(index);
      EXPECT_EQ(c & 1u, 1u ^ ((index >> key_bit<R>(false)) & 1u));  // v
      EXPECT_EQ((c >> 1) & 1u, 1u ^ ((index >> key_bit<R>(true)) & 1u));
    }
    for (unsigned c = 0; c < 4; ++c) {
      const unsigned pinned = key_facing_mask<R>();
      EXPECT_EQ(reverse_engineer_pinned<R>(R::candidate_index(pinned, c)), c);
    }
  });
}

TEST(ReverseEngineer, GeneralRuleReducesToPinnedWhenBitsAreOne) {
  for_both_widths([]<typename R>() {
    const unsigned pinned = key_facing_mask<R>();
    for (unsigned index = 0; index < 16; ++index) {
      // A pre-key nibble with both key-facing bits 1 (any other bits).
      for (unsigned other = 0; other < 16; ++other) {
        const unsigned n = other | pinned;
        EXPECT_EQ(reverse_engineer<R>(n, index),
                  reverse_engineer_pinned<R>(index));
      }
    }
  });
}

TEST(ReverseEngineer, GeneralRuleRecoversInjectedKeyBits) {
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{1};
    for (int i = 0; i < 100; ++i) {
      const unsigned n = rng.nibble();
      const auto c = static_cast<unsigned>(rng.uniform(4));
      EXPECT_EQ(reverse_engineer<R>(n, R::candidate_index(n, c)), c);
    }
  });
}

TEST(Assemble, RoundTripsThroughTheKeySchedule) {
  // Assembling the real round keys of a random master key must
  // reproduce that master key exactly.
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{2};
    for (int i = 0; i < 50; ++i) {
      const Key128 key = rng.key128();
      EXPECT_EQ(R::assemble_master_key(round_keys<R>(key, R::kStages)), key);
    }
  });
}

TEST(Assemble, EachRoundKeyBitMapsToDistinctMasterBit) {
  // Flipping any single round-key bit flips exactly one master-key bit,
  // a different one for every round-key bit.
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{3};
    const auto rks = round_keys<R>(rng.key128(), R::kStages);
    const Key128 base = R::assemble_master_key(rks);
    using Word = decltype(R::StageKey::u);
    std::set<unsigned> flipped;
    for (unsigned r = 0; r < R::kStages; ++r) {
      for (unsigned i = 0; i < R::kSegments; ++i) {
        for (const bool u : {true, false}) {
          auto mod = rks;
          (u ? mod[r].u : mod[r].v) ^= static_cast<Word>(Word{1} << i);
          const Key128 diff = R::assemble_master_key(mod) ^ base;
          unsigned ones = 0;
          for (unsigned b = 0; b < 128; ++b) {
            ones += diff.bit(b);
            if (diff.bit(b)) flipped.insert(b);
          }
          EXPECT_EQ(ones, 1u) << "round " << r << (u ? " u" : " v")
                              << "-bit " << i;
        }
      }
    }
    EXPECT_EQ(flipped.size(), 128u);
  });
}

TEST(Assemble, RecoveredKeyEncryptsCorrectly) {
  for_both_widths([]<typename R>() {
    Xoshiro256 rng{4};
    const Key128 key = rng.key128();
    const Key128 recovered =
        R::assemble_master_key(round_keys<R>(key, R::kStages));
    const typename R::Block pt = R::random_block(rng);
    EXPECT_TRUE(R::reference_encrypt(pt, recovered) ==
                R::reference_encrypt(pt, key));
  });
}

// --- GIFT-128 as numbers ------------------------------------------------
// GIFT-128 adds its round-key pair one bit higher than GIFT-64: V on
// nibble bit 1, U on bit 2, and two round keys carry the whole master
// key.  These cases write those positions out instead of reading them
// off the cipher.

TEST(TargetBits128, SourceBitsFeedKeyFacingPositions) {
  const gift::BitPermutation& perm = gift::gift128_permutation();
  for (unsigned s = 0; s < 32; ++s) {
    const auto& t = Gift128Recovery::kTargetBits[s];
    EXPECT_EQ(perm.forward(t.bit_a), 4 * s + 1);
    EXPECT_EQ(perm.forward(t.bit_b), 4 * s + 2);
    EXPECT_EQ(t.bit_a % 4, 1u);  // mod-4 preservation
    EXPECT_EQ(t.bit_b % 4, 2u);
    EXPECT_NE(t.seg_a, t.seg_b);
    // GS is balanced: eight distinct inputs per list.
    EXPECT_EQ(std::set<unsigned>(t.list_a.begin(), t.list_a.end()).size(),
              8u);
    EXPECT_EQ(std::set<unsigned>(t.list_b.begin(), t.list_b.end()).size(),
              8u);
  }
}

TEST(TargetBits128, ListsForceOutputBitsToOne) {
  for (unsigned s = 0; s < 32; s += 7) {
    const auto& t = Gift128Recovery::kTargetBits[s];
    for (unsigned x : t.list_a) {
      EXPECT_EQ((gift::gift_sbox().apply(x) >> 1) & 1u, 1u);
    }
    for (unsigned x : t.list_b) {
      EXPECT_EQ((gift::gift_sbox().apply(x) >> 2) & 1u, 1u);
    }
  }
}

TEST(Predictor128, IndexIdentityHolds) {
  // monitored index = n XOR (c << 1) with c = (u << 1) | v.
  Xoshiro256 rng{1};
  for (int trial = 0; trial < 20; ++trial) {
    const Key128 key = rng.key128();
    const gift::State128 pt{rng.block64(), rng.block64()};
    const gift::RoundKey128 rk0 = gift::extract_round_key128(key);
    const auto n = Gift128Recovery::pre_key_nibbles(pt, {}, 0);
    const gift::State128 state1 = gift::Gift128::encrypt_rounds(pt, key, 1);
    for (unsigned s = 0; s < 32; ++s) {
      EXPECT_EQ(state1.nibble(s), n[s] ^ (key_pair(rk0, s) << 1))
          << "segment " << s;
    }
  }
}

TEST(Crafter128, PinsKeyFacingBits) {
  Xoshiro256 rng{2};
  Gift128Recovery::Crafter crafter{rng};
  for (unsigned s = 0; s < 32; s += 5) {
    const auto n = Gift128Recovery::pre_key_nibbles(crafter.craft(s, {}, 0),
                                                    {}, 0);
    // Bits 1 and 2 of the pre-key nibble must be 1.
    EXPECT_EQ(n[s] & 0x6, 0x6u) << "segment " << s;
  }
}

TEST(Crafter128, DeepStageInversionRoundTrips) {
  Xoshiro256 rng{3};
  const auto keys = round_keys<Gift128Recovery>(rng.key128(), 1);
  Gift128Recovery::Crafter crafter{rng};
  const auto n =
      Gift128Recovery::pre_key_nibbles(crafter.craft(9, keys, 1), keys, 1);
  EXPECT_EQ(n[9] & 0x6, 0x6u);
}

TEST(Assemble128, RoundTripsThroughTheKeySchedule) {
  Xoshiro256 rng{4};
  for (int i = 0; i < 30; ++i) {
    const Key128 key = rng.key128();
    EXPECT_EQ(Gift128Recovery::assemble_master_key(
                  round_keys<Gift128Recovery>(key, 2)),
              key);
  }
}

}  // namespace
}  // namespace grinch::target
