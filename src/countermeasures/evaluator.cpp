#include "countermeasures/evaluator.h"

#include "countermeasures/hardened_schedule.h"
#include "countermeasures/packed_sbox.h"
#include "gift/bitslice.h"
#include "target/registry.h"

namespace grinch::cm {
namespace {

/// Platform whose victim is the constant-time bitsliced implementation:
/// it issues NO table accesses, so every probe finds every monitored
/// line absent — the attack starves.
class ConstantTimePlatform final
    : public target::ObservationSource<std::uint64_t> {
 public:
  explicit ConstantTimePlatform(const Key128& victim_key)
      : key_(victim_key) {}

  target::Observation observe(std::uint64_t plaintext,
                              unsigned stage) override {
    (void)stage;
    target::Observation o;
    o.present.assign(16, false);  // nothing to observe, ever
    o.probed_after_round = 28;
    last_ciphertext_ = cipher_.encrypt(plaintext, key_);
    return o;
  }
  [[nodiscard]] const gift::TableLayout& layout() const override {
    return layout_;
  }
  [[nodiscard]] std::vector<unsigned> index_line_ids() const override {
    return line_ids_;
  }
  [[nodiscard]] std::uint64_t last_ciphertext() const override {
    return last_ciphertext_;
  }

 private:
  Key128 key_;
  gift::TableLayout layout_;
  gift::BitslicedGift64 cipher_;
  std::vector<unsigned> line_ids_ =
      target::compute_index_line_ids(layout_, 1);
  std::uint64_t last_ciphertext_ = 0;
};

}  // namespace

const char* to_string(Protection p) noexcept {
  switch (p) {
    case Protection::kNone: return "none (baseline)";
    case Protection::kPackedSBox: return "packed 8x8 S-Box";
    case Protection::kHardenedSchedule: return "hardened UpdateKey";
    case Protection::kBoth: return "packed S-Box + hardened UpdateKey";
    case Protection::kConstantTime: return "constant-time bitsliced";
  }
  return "?";
}

EvaluationResult evaluate_protection(Protection protection,
                                     const Key128& victim_key,
                                     std::uint64_t budget,
                                     std::uint64_t seed) {
  target::Gift64Platform::Config cfg;
  cfg.probing_round = 1;
  cfg.use_flush = true;
  const bool packed = protection == Protection::kPackedSBox ||
                      protection == Protection::kBoth;
  const bool hardened = protection == Protection::kHardenedSchedule ||
                        protection == Protection::kBoth;
  if (packed) {
    cfg.layout = packed_sbox_layout();
    cfg.cache = packed_sbox_cache();
  }

  // The hardened victim encrypts with its whitened round keys.
  const gift::TableGift64::Schedule round_keys =
      hardened ? hardened_round_keys(victim_key, gift::Gift64::kRounds)
               : gift::TableGift64::make_schedule(victim_key);
  target::Gift64Platform table_platform{cfg, round_keys};
  ConstantTimePlatform ct_platform{victim_key};
  target::ObservationSource<std::uint64_t>& platform =
      protection == Protection::kConstantTime
          ? static_cast<target::ObservationSource<std::uint64_t>&>(
                ct_platform)
          : table_platform;
  attack::GrinchConfig acfg;
  acfg.seed = seed;
  acfg.max_encryptions = budget;
  attack::GrinchAttack attack{platform, acfg};
  const attack::AttackResult r = attack.run();

  EvaluationResult out;
  out.protection = protection;
  out.encryptions = r.total_encryptions;
  // "Attack succeeded" = the elimination pipeline converged on all four
  // effective sub-keys; "key retrieved" = the paper's actual security
  // claim (the master key fell).
  out.attack_succeeded = r.round_keys.size() == 4;
  out.key_retrieved = r.success && r.recovered_key == victim_key;

  if (!out.attack_succeeded) {
    out.note = "candidate elimination never converged (no leakage)";
  } else if (!out.key_retrieved) {
    out.note = "sub-key bits leaked but master-key inversion failed";
  } else {
    out.note = "full key retrieved";
  }
  return out;
}

std::vector<EvaluationResult> evaluate_all(const Key128& victim_key,
                                           std::uint64_t budget,
                                           std::uint64_t seed) {
  std::vector<EvaluationResult> out;
  for (Protection p :
       {Protection::kNone, Protection::kPackedSBox,
        Protection::kHardenedSchedule, Protection::kBoth,
        Protection::kConstantTime}) {
    out.push_back(evaluate_protection(p, victim_key, budget, seed));
  }
  return out;
}

}  // namespace grinch::cm
