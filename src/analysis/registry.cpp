#include "analysis/registry.h"

#include <string>
#include <utility>

#include "countermeasures/hardened_schedule.h"
#include "countermeasures/packed_sbox.h"
#include "gift/bitslice.h"
#include "gift/gift128.h"
#include "gift/sbox.h"
#include "target/gift128_traits.h"
#include "target/gift64_traits.h"
#include "target/present80_traits.h"

namespace grinch::analysis {
namespace {

unsigned gift_sbox_value(unsigned v) { return gift::gift_sbox().apply(v); }
unsigned present_sbox_value(unsigned v) {
  return gift::present_sbox().apply(v);
}

/// One leaky table-implemented cipher, described through its target
/// traits (src/target/): the name is `<Traits::kName>-table` and the
/// dynamic runner builds Traits::TableCipher, assembling the block from
/// the (pt_lo, pt_hi) words via Traits::block_from_words.
template <typename Traits>
AnalysisTarget table_cipher_target(const char* description, CipherModel model,
                                   unsigned analysis_rounds) {
  AnalysisTarget t;
  t.name = std::string{Traits::kName} + "-table";
  t.description = description;
  t.expect_leaky = true;
  t.model = std::move(model);
  t.cache = cachesim::CacheConfig::paper_default();
  t.analysis_rounds = analysis_rounds;
  t.run = [](std::uint64_t pt_lo, std::uint64_t pt_hi, const Key128& key,
             unsigned rounds, gift::TraceSink* sink) {
    const typename Traits::TableCipher cipher;
    (void)cipher.encrypt_rounds(Traits::block_from_words(pt_lo, pt_hi), key,
                                rounds, sink);
  };
  return t;
}

AnalysisTarget gift64_table_target() {
  // analysis_rounds 5: the paper's rounds 2..5 = 4 x 32 fresh key bits.
  AnalysisTarget t = table_cipher_target<target::Gift64Traits>(
      "table-based GIFT-64 (the paper's victim)", gift64_table_model(), 5);
  t.quantify.sbox_value = gift_sbox_value;
  // The paper's headline: 2 fresh key bits per segment per attacked round
  // (rounds 2..5 of the paper = code rounds 1..4), 16 segments.  The
  // PermBits LUT independently confirms the same bits through its own
  // rows (S is a bijection), so its channel also measures 2 per segment.
  t.quantify.budget_sbox_bits = 4 * 16 * 2.0;
  t.quantify.budget_perm_bits = 4 * 16 * 2.0;
  return t;
}

AnalysisTarget gift128_table_target() {
  // analysis_rounds 3: two attacked rounds x 64 bits cover the key.
  AnalysisTarget t = table_cipher_target<target::Gift128Traits>(
      "table-based GIFT-128 (GIFT-COFB core)", gift128_table_model(), 3);
  t.quantify.sbox_value = gift_sbox_value;
  // 2 key-facing index bits per segment, 32 segments, rounds 1..2.
  t.quantify.budget_sbox_bits = 2 * 32 * 2.0;
  t.quantify.budget_perm_bits = 2 * 32 * 2.0;
  return t;
}

AnalysisTarget present80_table_target() {
  // analysis_rounds 2: the round key covers the state from round 1 on.
  AnalysisTarget t = table_cipher_target<target::Present80Traits>(
      "table-based PRESENT-80 (extension target)", present80_table_model(), 2);
  t.quantify.sbox_value = present_sbox_value;
  // PRESENT adds the key *before* SubCells, so all four index bits of
  // every segment are fresh in both analyzed rounds: 4 bits x 16 x 2.
  t.quantify.budget_sbox_bits = 2 * 16 * 4.0;
  t.quantify.budget_perm_bits = 2 * 16 * 4.0;
  return t;
}

AnalysisTarget gift64_bitsliced_target() {
  AnalysisTarget t;
  t.name = "gift64-bitsliced";
  t.description = "constant-time bitsliced GIFT-64 (no table accesses)";
  t.expect_leaky = false;
  t.model = gift64_bitsliced_model();
  t.cache = cachesim::CacheConfig::paper_default();
  // No lookups at all: zero budget, and nothing for the perm hook to map.
  t.run = [](std::uint64_t pt_lo, std::uint64_t /*pt_hi*/, const Key128& key,
             unsigned /*rounds*/, gift::TraceSink* /*sink*/) {
    // The bitsliced implementation issues no data-dependent loads, so an
    // instrumented run has nothing to report; executing it keeps the
    // dynamic oracle honest about "the trace is empty", not "we skipped".
    const gift::BitslicedGift64 cipher;
    (void)cipher.encrypt(pt_lo, key);
  };
  return t;
}

AnalysisTarget gift64_packed_target() {
  AnalysisTarget t;
  t.name = "gift64-packed-sbox";
  t.description =
      "packed-S-Box countermeasure (8x8-bit rows, 8-byte lines, register "
      "PermBits)";
  t.expect_leaky = false;
  t.model = gift64_packed_model();
  t.layout = cm::packed_sbox_layout();
  t.cache = cm::packed_sbox_cache();
  t.observe_perm = false;  // PermBits computed in registers
  t.quantify.sbox_value = gift_sbox_value;
  // The reshaped table lives in one 8-byte line: zero measured bits.
  t.quantify.budget_sbox_bits = 0.0;
  t.quantify.budget_perm_bits = 0.0;
  t.run = [](std::uint64_t pt_lo, std::uint64_t /*pt_hi*/, const Key128& key,
             unsigned rounds, gift::TraceSink* sink) {
    const gift::TableGift64 cipher{cm::packed_sbox_layout()};
    (void)cipher.encrypt_rounds(pt_lo, key, rounds, sink);
  };
  return t;
}

AnalysisTarget gift64_packed_lut_perm_target() {
  AnalysisTarget t = gift64_packed_target();
  t.name = "gift64-packed-sbox-lut-perm";
  t.description =
      "packed S-Box but PermBits still a LUT — the perm table leaks";
  t.expect_leaky = true;
  t.model.name = t.name;
  t.model.perm_lookups = true;
  t.observe_perm = true;
  // The S-Box is silent, but each of the 4 reachable PermBits rows sits
  // in its own 8-byte line: the perm LUT still measures the full 2 bits
  // per segment per attacked round — the gap the taint pass found, now
  // with a number attached.
  t.quantify.budget_perm_bits = 4 * 16 * 2.0;
  return t;
}

AnalysisTarget gift64_hardened_target() {
  AnalysisTarget t = gift64_table_target();
  t.name = "gift64-hardened-schedule";
  t.description =
      "hardened UpdateKey countermeasure — the cache leak itself is "
      "unchanged (it defeats key reconstruction, not observation)";
  t.expect_leaky = true;
  t.model.name = t.name;
  // Inherits gift64-table's budget on purpose: the countermeasure leaves
  // the observable channel untouched (it defeats reconstruction, not
  // observation), and the equal measured bits make that visible.
  t.run = [](std::uint64_t pt_lo, std::uint64_t /*pt_hi*/, const Key128& key,
             unsigned rounds, gift::TraceSink* sink) {
    const gift::TableGift64 cipher;
    (void)cipher.encrypt_with_schedule(
        pt_lo, cm::hardened_round_keys(key, rounds), rounds, sink);
  };
  return t;
}

}  // namespace

std::vector<AnalysisTarget> builtin_targets() {
  std::vector<AnalysisTarget> targets;
  targets.push_back(gift64_table_target());
  targets.push_back(gift128_table_target());
  targets.push_back(present80_table_target());
  targets.push_back(gift64_bitsliced_target());
  targets.push_back(gift64_packed_target());
  targets.push_back(gift64_packed_lut_perm_target());
  targets.push_back(gift64_hardened_target());
  return targets;
}

const AnalysisTarget* find_target(const std::vector<AnalysisTarget>& targets,
                                  const std::string& name) {
  for (const AnalysisTarget& t : targets) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

}  // namespace grinch::analysis
