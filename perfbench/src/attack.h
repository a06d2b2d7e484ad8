// The single-attack workload: target::recover_key<Gift64Recovery> on the
// paper-default platform, the path `grinch attack` runs: scalar engine,
// DirectProbePlatform and cachesim::Cache.  Closed loop with one client
// per worker; each client runs one attack at a time.  One client alone
// measured mostly which vCPU it ran on (README.md, Noise).
//
// Untraced run: set-up (repeated, median reported), then every client
// runs attacks on fresh victim keys, drawn from its own input stream,
// until the timed wall reaches --seconds and at least kMinAttacks ran in
// all, so that the p99 has ten samples beyond it.  Every recovered key is
// compared with the victim key after its attack.
//
// Traced run (--trace 1): the untraced run, then every client runs its
// attacks twice more, interleaved window by window: once untraced and
// once with a span around each recover_key call (their results must
// equal the first run's).  The layer replays of layers.h run once each
// client has done that for its share of the first kReplayAttacks, on
// those attacks.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "layer_metrics.h"
#include "layers.h"
#include "report.h"
#include "runner/thread_pool.h"
#include "spans.h"
#include "target/gift64_recovery.h"
#include "target/registry.h"

namespace perfbench {

namespace detail {

inline constexpr std::size_t kMinAttacks = 1000;
/// Warm-up attacks per client in each set-up repetition.
inline constexpr std::size_t kWarmupAttacks = 16;
inline constexpr std::size_t kReplayAttacks = 1024;
/// The traced pass switches spans on and off every this many attacks.
inline constexpr std::size_t kWindowAttacks = 64;

/// What the traced pass must repeat of one attack.
struct AttackOutcome {
  std::uint64_t encryptions = 0;
  grinch::Key128 recovered{};
  bool verified = false;

  static AttackOutcome of(const Trial<grinch::target::Gift64Recovery>& t) {
    return {t.result.total_encryptions, t.result.recovered_key,
            t.verified()};
  }
  bool operator==(const AttackOutcome&) const = default;
};

/// The victim key and engine seed of every attack, drawn in order from
/// one stream.
class AttackInputs {
 public:
  explicit AttackInputs(std::uint64_t seed) : rng_(seed) {}
  Trial<grinch::target::Gift64Recovery> next() {
    Trial<grinch::target::Gift64Recovery> t;
    t.victim.hi = rng_.next();
    t.victim.lo = rng_.next();
    t.seed = rng_.next();
    return t;
  }

 private:
  grinch::Xoshiro256 rng_;
};

/// What one client did in the timed loop.  Only its first attacks keep
/// their full results (the layer replays need them); the rest keep what
/// the traced pass compares, so memory does not grow with the number of
/// attacks a run manages.
struct Client {
  std::uint64_t seed = 0;  ///< of its input stream
  std::vector<AttackOutcome> outcomes;
  std::vector<double> latency;
  std::vector<Trial<grinch::target::Gift64Recovery>> replay;
  Counts total;
};

}  // namespace detail

inline Result run_attack_workload(const RunOptions& opt) {
  using Recovery = grinch::target::Gift64Recovery;
  using EngineConfig = grinch::target::KeyRecoveryEngine<Recovery>::Config;
  const grinch::target::DirectProbePlatform<Recovery>::Config pcfg;
  Result res;
  Errors errors{res};
  const auto attack = [&](const Trial<Recovery>& t) {
    EngineConfig cfg;
    cfg.seed = t.seed;
    return grinch::target::recover_key<Recovery>(t.victim, cfg, pcfg);
  };
  const unsigned clients = opt.workers;

  // Set-up: pool start, input derivation and warm-up attacks on every
  // client, which finish lazy first-use work (kernel dispatch,
  // first-touch pages).  Repeated; the median is reported.
  std::vector<double> setup;
  for (unsigned k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    grinch::runner::ThreadPool pool{clients};
    detail::AttackInputs warm{kWarmupSeed};
    std::vector<Trial<Recovery>> trials(detail::kWarmupAttacks * clients);
    for (Trial<Recovery>& t : trials) t = warm.next();
    pool.parallel_for(trials.size(), [&](std::size_t i) {
      trials[i].result = attack(trials[i]);
    });
    setup.push_back(seconds_since(t0));
    for (const Trial<Recovery>& t : trials) {
      res.check(!t.result.success || t.verified(),
                "warm-up attack recovered a wrong key");
    }
  }
  res.notes.push_back(ms_list("set-up repetitions", setup));

  // Timed: every client attacks, one attack at a time, until the shared
  // stop rule holds.
  grinch::runner::ThreadPool pool{clients};
  std::vector<detail::Client> client(clients);
  grinch::Xoshiro256 client_seeds{opt.seed};
  for (detail::Client& c : client) c.seed = client_seeds.next();
  std::atomic<std::size_t> started{0};
  const auto start = Clock::now();
  pool.parallel_for(clients, [&](std::size_t i) {
    detail::Client& me = client[i];
    detail::AttackInputs inputs{me.seed};
    for (;;) {
      const std::size_t n = started.fetch_add(1, std::memory_order_relaxed);
      if (n >= detail::kMinAttacks && seconds_since(start) >= opt.seconds) {
        break;
      }
      Trial<Recovery> t = inputs.next();
      const auto t0 = Clock::now();
      t.result = attack(t);
      me.latency.push_back(seconds_since(t0));
      count(me.total, t);
      me.outcomes.push_back(detail::AttackOutcome::of(t));
      if (me.replay.size() < detail::kReplayAttacks / clients) {
        me.replay.push_back(std::move(t));
      }
    }
  });
  const double timed = seconds_since(start);
  Counts total;
  std::vector<double> latency;
  for (const detail::Client& c : client) {
    total += c.total;
    latency.insert(latency.end(), c.latency.begin(), c.latency.end());
  }
  res.attempted = total.trials;
  res.failed = total.wrong_keys;
  res.unverified = total.trials - total.verified;
  res.check(total.wrong_keys == 0, std::to_string(total.wrong_keys) +
                                       " recovered keys differ from the "
                                       "victim's");
  res.check(total.verified > 0, "no verified keys");
  res.notes.push_back("attacks: " + std::to_string(latency.size()) +
                      " by " + std::to_string(clients) +
                      " clients (latency samples; tail = p99)");

  if (!opt.trace) {
    add_end_to_end(res, EndToEnd{ratio(double(total.verified), timed),
                                 median(latency) * 1e3,
                                 percentile(latency, 99.0) * 1e3,
                                 ratio(double(total.encryptions),
                                       double(total.verified)),
                                 ratio(double(total.offline_trials),
                                       double(total.verified)),
                                 ratio(double(total.verified),
                                       double(total.trials)),
                                 median(setup), peak_rss_mb()});
    return res;
  }

  // Traced pass over the same attacks, each client's inputs drawn again
  // from its stream.  Each window of kWindowAttacks runs twice, with and
  // without spans, in an order that alternates from window to window, so
  // that host drift cannot show up as tracing overhead.  The clients run
  // their replay share first; the layer replays of layers.h then run on
  // those attacks, so that the engine time they are set against was
  // measured moments before them, and the clients go on with the rest.
  Tracer tracer;
  LayerInputs in;
  std::vector<detail::AttackInputs> again;
  for (const detail::Client& c : client) again.emplace_back(c.seed);
  std::vector<Counts> traced(clients);
  std::vector<double> untraced_wall(clients, 0.0);
  const auto pass = [&](std::size_t i, std::size_t begin, std::size_t end,
                        std::uint64_t parent) {
    for (std::size_t w = begin; w < end; w += detail::kWindowAttacks) {
      const std::size_t stop = std::min(end, w + detail::kWindowAttacks);
      std::vector<Trial<Recovery>> window;
      for (std::size_t j = w; j < stop; ++j) window.push_back(again[i].next());
      for (unsigned leg = 0; leg < 2; ++leg) {
        const bool spans = (leg + w / detail::kWindowAttacks) % 2 == 0;
        for (std::size_t j = w; j < stop; ++j) {
          Trial<Recovery> t = window[j - w];
          if (spans) {
            const ScopedSpan span{tracer, "target.recover_key", parent,
                                  "attack", static_cast<std::int64_t>(j)};
            t.result = attack(t);
          } else {
            const auto t0 = Clock::now();
            t.result = attack(t);
            untraced_wall[i] += seconds_since(t0);
          }
          errors.check(detail::AttackOutcome::of(t) == client[i].outcomes[j],
                       "attack " + std::to_string(j) + " of client " +
                           std::to_string(i) + " differs from its first run");
          if (spans) count(traced[i], t);
        }
      }
    }
  };
  std::vector<Trial<Recovery>> replay;
  {
    const ScopedSpan loop{tracer, "attack.loop"};
    pool.parallel_for(clients, [&](std::size_t i) {
      pass(i, 0, client[i].replay.size(), loop.id());
    });
    in.replayed_engine_s = tracer.total_seconds("target.recover_key");
    for (const detail::Client& c : client) {
      replay.insert(replay.end(), c.replay.begin(), c.replay.end());
    }
    std::tie(in.replayed_encs, in.finalized) =
        replay_engine_layers<Recovery>(
            std::span<const Trial<Recovery>>{replay}, 1, pcfg, pool, tracer,
            errors);
    pool.parallel_for(clients, [&](std::size_t i) {
      pass(i, client[i].replay.size(), client[i].outcomes.size(), loop.id());
    });
  }
  Counts traced_total;
  for (std::size_t i = 0; i < clients; ++i) {
    traced_total += traced[i];
    in.untraced_wall += untraced_wall[i];
  }
  res.check(traced_total == total,
            "traced counts differ from the untraced run");

  in.counts = traced_total;
  in.workers = clients;
  in.traced_wall = tracer.total_seconds("target.recover_key");
  in.engine_s = in.traced_wall;
  for (const Trial<Recovery>& t : replay) count(in.replayed, t);
  in.observe_wide_primary = false;
  in.ref = time_reference_ciphers(opt.seed, tracer, errors);
  add_per_layer(res, tracer, in);
  write_trace(res, tracer, opt);
  return res;
}

}  // namespace perfbench
