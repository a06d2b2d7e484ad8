// Golden digests of the GIFT-64 direct-probe platform and its probe
// options.
//
// Each named configuration runs a fixed observation stream (stages 0-3,
// with the precision-probing focus swept over every segment) and folds
// every observation's present word and size, probed round, attacker
// cycles, sbox_hits size and word, and the published ciphertext into one
// CRC-32.  Stage-0 GrinchAttack runs on the same configuration fold into
// the same digest: hard, voted and statistical elimination, with trace
// hits where the platform captures them.  A cross-product sweep pins the
// options' interactions, and full four-stage attacks pin key assembly
// and verification.  A change to the probe pipeline that moves a cache
// transition, a noise draw or an elimination decision breaks a digest.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "attack/grinch.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "countermeasures/hardened_schedule.h"
#include "countermeasures/packed_sbox.h"
#include "target/registry.h"

namespace grinch {
namespace {

using Platform = target::Gift64Platform;

/// Little-endian CRC-32 accumulator over integer fields.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    std::array<unsigned char, 8> bytes{};
    for (unsigned i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    crc_ = Crc32::update(crc_, bytes.data(), bytes.size());
  }
  [[nodiscard]] std::uint32_t value() const noexcept {
    return Crc32::finalize(crc_);
  }

 private:
  std::uint32_t crc_ = Crc32::kInit;
};

/// One platform configuration.
struct Spec {
  target::ProbeMethod method = target::ProbeMethod::kFlushReload;
  bool precise = false;
  bool trace = false;
  unsigned noise = 0;
  unsigned probing_round = 1;
  bool flush = true;
  bool hardened = false;
  unsigned line_words = 1;
  bool packed = false;
};

std::unique_ptr<Platform> make_platform(const Spec& spec, const Key128& key) {
  Platform::Config cfg;
  cfg.method = spec.method;
  cfg.precise_probe = spec.precise;
  cfg.capture_trace = spec.trace;
  cfg.noise_accesses_per_round = spec.noise;
  cfg.probing_round = spec.probing_round;
  cfg.use_flush = spec.flush;
  cfg.cache.line_bytes = spec.line_words;
  if (spec.packed) {
    cfg.layout = cm::packed_sbox_layout();
    cfg.cache = cm::packed_sbox_cache();
  }
  if (spec.hardened) {
    return std::make_unique<Platform>(
        cfg, cm::hardened_round_keys(key, gift::Gift64::kRounds));
  }
  return std::make_unique<Platform>(cfg, key);
}

/// `count` observations on one platform: stage i % 4, focus i / 4.
void fold_observations(Digest& d, const Spec& spec, std::uint64_t salt,
                       unsigned count) {
  Xoshiro256 rng{0x0B5E ^ salt};
  const auto platform = make_platform(spec, rng.key128());
  for (unsigned i = 0; i < count; ++i) {
    platform->focus_segment((i / 4) % 16);
    const target::Observation o = platform->observe(rng.block64(), i % 4);
    d.add(o.present.word());
    d.add(o.present.size());
    d.add(o.probed_after_round);
    d.add(o.attacker_cycles);
    d.add(o.sbox_hits.size());
    d.add(o.sbox_hits.word());
    d.add(platform->last_ciphertext());
  }
}

void fold_attack(Digest& d, const attack::AttackResult& r) {
  d.add(r.success);
  d.add(r.key_verified);
  d.add(r.recovered_key.hi);
  d.add(r.recovered_key.lo);
  d.add(r.total_encryptions);
  d.add(r.stages.size());
  for (const attack::StageReport& s : r.stages) {
    d.add(s.success);
    d.add(s.deferred);
    d.add(s.round_key.u);
    d.add(s.round_key.v);
    d.add(s.encryptions);
    d.add(s.noise_restarts);
    d.add(s.attacker_cycles);
  }
  d.add(r.round_keys.size());
  for (const gift::RoundKey64& k : r.round_keys) {
    d.add(k.u);
    d.add(k.v);
  }
}

attack::AttackResult run_attack(const Spec& spec, std::uint64_t salt,
                                attack::GrinchConfig acfg) {
  Xoshiro256 rng{0xA77 ^ salt};
  const auto platform = make_platform(spec, rng.key128());
  acfg.seed = rng.next();
  attack::GrinchAttack attack{*platform, acfg};
  return attack.run();
}

/// Stage-0 attacks: hard, voted (threshold 3) and statistical
/// elimination, two keys each.
void fold_stage0_attacks(Digest& d, const Spec& spec) {
  for (unsigned mode = 0; mode < 3; ++mode) {
    for (unsigned trial = 0; trial < 2; ++trial) {
      attack::GrinchConfig acfg;
      acfg.stages = 1;
      acfg.max_encryptions = 3000;
      acfg.elimination_threshold = mode == 1 ? 3 : 1;
      acfg.statistical_elimination = mode == 2;
      acfg.use_trace_hits = spec.trace;
      fold_attack(d, run_attack(spec, (mode << 4) | trial, acfg));
    }
  }
}

void expect_digest(const char* name, const Digest& d, std::uint32_t golden) {
  char hex[16];
  std::snprintf(hex, sizeof hex, "0x%08X", d.value());
  EXPECT_EQ(d.value(), golden) << name << ": digest " << hex;
}

/// A named configuration's observation stream plus its stage-0 attacks.
void expect_config(const char* name, const Spec& spec,
                   std::uint32_t golden) {
  Digest d;
  fold_observations(d, spec, 0, 64);
  fold_stage0_attacks(d, spec);
  expect_digest(name, d, golden);
}

TEST(ProbeOptionDigest, PaperDefault) {
  expect_config("paper default", {}, 0xD60181C9);
}

TEST(ProbeOptionDigest, PrimeProbe) {
  expect_config("Prime+Probe", {.method = target::ProbeMethod::kPrimeProbe},
                0x9E273FBA);
}

TEST(ProbeOptionDigest, PreciseFocusSweep) {
  expect_config("precise", {.precise = true}, 0x04CF04E0);
}

TEST(ProbeOptionDigest, TraceCapture) {
  expect_config("trace", {.trace = true}, 0xFA223534);
}

TEST(ProbeOptionDigest, Noise256) {
  // At probing round 1 on 16 ways, 256 accesses per round evict nothing
  // monitored; three rounds of them do.
  expect_config("noise 256", {.noise = 256, .probing_round = 3}, 0x7C2CD964);
}

TEST(ProbeOptionDigest, Noise1024) {
  expect_config("noise 1024", {.noise = 1024}, 0xE7DD9B67);
}

TEST(ProbeOptionDigest, HardenedSchedule) {
  expect_config("hardened schedule", {.hardened = true}, 0xF9C1EB78);
}

TEST(ProbeOptionDigest, PackedSBox) {
  expect_config("packed S-Box", {.packed = true}, 0xF961AA2E);
}

TEST(ProbeOptionDigest, NoFlush) {
  expect_config("no flush", {.flush = false}, 0x8AEDBB1F);
}

TEST(ProbeOptionDigest, ProbingRound3) {
  expect_config("probing round 3", {.probing_round = 3}, 0x121CABA5);
}

TEST(ProbeOptionDigest, TwoWordLines) {
  expect_config("2-word lines", {.line_words = 2}, 0x7EF2C709);
}

TEST(ProbeOptionDigest, OptionCrossProduct) {
  // Every combination of method x precise x trace x noise x probing
  // round x flush x schedule x line size, plus the packed layout: 24
  // observations each.
  Digest d;
  std::uint64_t salt = 0;
  for (const auto method :
       {target::ProbeMethod::kFlushReload, target::ProbeMethod::kPrimeProbe}) {
    for (const bool precise : {false, true}) {
      for (const bool trace : {false, true}) {
        for (const unsigned noise : {0u, 256u, 1024u}) {
          for (const unsigned probing_round : {1u, 3u}) {
            for (const bool flush : {true, false}) {
              for (const bool hardened : {false, true}) {
                for (const unsigned line_words : {1u, 4u}) {
                  const Spec spec{method, precise,  trace,     noise,
                                  probing_round, flush, hardened,
                                  line_words};
                  fold_observations(d, spec, ++salt, 24);
                }
              }
            }
          }
        }
      }
    }
  }
  for (const bool precise : {false, true}) {
    fold_observations(d, {.precise = precise, .packed = true}, ++salt, 24);
  }
  expect_digest("cross product", d, 0x1666178F);
}

TEST(ProbeOptionDigest, FullKeyRecovery) {
  // The whole four-stage attack, with key assembly and verification, on
  // the paper default and on the hardened schedule (whose assembled key
  // fails verification).
  Digest d;
  for (const bool hardened : {false, true}) {
    fold_attack(d, run_attack({.hardened = hardened}, 0xF011, {}));
  }
  expect_digest("full key", d, 0xED7B11F1);
}

}  // namespace
}  // namespace grinch
