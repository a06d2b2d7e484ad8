#include "soc/platform.h"

namespace grinch::soc {
namespace {

target::Observation from_probe(const target::ProbeResult& probe,
                               unsigned probed_after_round,
                               std::uint64_t extra_cycles) {
  target::Observation o;
  o.present = probe.row_present;
  o.probed_after_round = probed_after_round;
  o.attacker_cycles = probe.cycles + extra_cycles;
  return o;
}

}  // namespace

// --------------------------------------------------------- SingleCoreSoC --

SingleCoreSoC::SingleCoreSoC(const Config& config, const Key128& victim_key)
    : config_(config),
      key_(victim_key),
      cache_(config.cache),
      cipher_(config.layout),
      victim_(cipher_, cache_, config.cost),
      scheduler_(config.rtos),
      prober_(target::make_prober(config.method, cache_, config.layout)),
      line_ids_(target::compute_index_line_ids(config.layout,
                                               config.cache.line_bytes)) {}

std::vector<unsigned> SingleCoreSoC::index_line_ids() const {
  return line_ids_;
}

std::uint64_t SingleCoreSoC::last_ciphertext() const {
  if (!last_ct_valid_) {
    last_ct_ = cipher_.encrypt(last_pt_, key_);
    last_ct_valid_ = true;
  }
  return last_ct_;
}

double SingleCoreSoC::measured_cycles_per_round() {
  victim_.begin_encryption(0x0123456789ABCDEFull, key_);
  victim_.finish();
  return victim_.cycles_per_round();
}

unsigned SingleCoreSoC::first_probe_round() {
  return scheduler_.probed_round(measured_cycles_per_round());
}

target::Observation SingleCoreSoC::observe(std::uint64_t plaintext,
                                           unsigned stage) {
  (void)stage;  // the probe moment is dictated by the scheduler, not the stage
  VictimProcess& victim = victim_;

  std::uint64_t attacker_cycles = 0;
  // The attacker's previous quantum ends just before the victim's next one
  // begins; its last action is preparing the monitored lines (flush or
  // prime), so every observation prepares before the victim's quantum.
  attacker_cycles += prober_->prepare();

  // The probe moment emerges from scheduling, so the victim cannot be
  // truncated up front: any round may execute within the quantum.
  victim.begin_encryption(plaintext, key_);
  // The victim owns the core for one quantum, then is preempted (possibly
  // mid-round); the attacker probes at the start of its own quantum.
  victim.run_until_cycle(scheduler_.config().quantum_cycles());

  const target::ProbeResult probe = prober_->probe();
  target::Observation o =
      from_probe(probe, victim.rounds_done(), attacker_cycles);
  last_pt_ = plaintext;
  last_ct_valid_ = false;
  return o;
}

// ----------------------------------------------------------------- MpSoc --

MpSoc::MpSoc(const Config& config, const Key128& victim_key)
    : config_(config),
      key_(victim_key),
      topology_(config.mesh_width, config.mesh_height),
      network_(topology_, config.link),
      cache_(config.cache),
      cipher_(config.layout),
      victim_(cipher_, cache_, config.cost),
      prober_(cache_, config.layout),
      line_ids_(target::compute_index_line_ids(config.layout,
                                               config.cache.line_bytes)) {}

std::vector<unsigned> MpSoc::index_line_ids() const { return line_ids_; }

std::uint64_t MpSoc::last_ciphertext() const {
  if (!last_ct_valid_) {
    last_ct_ = cipher_.encrypt(last_pt_, key_);
    last_ct_valid_ = true;
  }
  return last_ct_;
}

std::uint64_t MpSoc::remote_access_cycles() {
  // Request packet to the cache tile, cache access, response packet back.
  const std::uint64_t request = network_
                                    .send(config_.attacker_tile,
                                          config_.cache_tile,
                                          config_.probe_payload_bytes)
                                    .latency_cycles;
  const std::uint64_t response = network_
                                     .send(config_.cache_tile,
                                           config_.attacker_tile,
                                           config_.probe_payload_bytes)
                                     .latency_cycles;
  return request + cache_.config().hit_latency + response;
}

double MpSoc::remote_access_ns() {
  return static_cast<double>(remote_access_cycles()) /
         (config_.clock_mhz * 1e6) * 1e9;
}

std::uint64_t MpSoc::probe_sequence_cycles() {
  const std::uint64_t per_op = remote_access_cycles();
  // Flush every monitored line, then reload each (upper bound: all miss).
  const std::uint64_t rows = config_.layout.sbox_rows();
  return rows * per_op +
         rows * (per_op + cache_.config().miss_latency);
}

unsigned MpSoc::first_probe_round() {
  victim_.begin_encryption(0x0123456789ABCDEFull, key_);
  victim_.finish();
  const double cpr = victim_.cycles_per_round();
  const auto probe = static_cast<double>(probe_sequence_cycles());
  // The attacker runs concurrently on its own tile; its first probe
  // completes after one probe sequence.
  const auto completed = static_cast<unsigned>(probe / cpr);
  return completed + 1;
}

target::Observation MpSoc::observe(std::uint64_t plaintext, unsigned stage) {
  // With its own core, the attacker synchronises to round boundaries by
  // continuous probing: flush right before the monitored round, probe
  // right after it — the ideal probing-round-1 observation.  Only rounds
  // 0..stage+1 are consumed, so the victim stops there.
  VictimProcess& victim = victim_;
  victim.begin_encryption(plaintext, key_, 0, stage + 2);
  victim.run_until_round(stage + 1);

  std::uint64_t attacker_cycles = prober_.prepare();
  attacker_cycles +=
      config_.layout.sbox_rows() * remote_access_cycles();  // NoC cost

  victim.run_until_round(stage + 2);
  target::ProbeResult probe = prober_.probe();
  probe.cycles += 16 * remote_access_cycles();
  target::Observation o = from_probe(probe, stage + 2, attacker_cycles);
  last_pt_ = plaintext;
  last_ct_valid_ = false;
  return o;
}

}  // namespace grinch::soc
