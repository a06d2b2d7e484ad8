// Full GRINCH attack demo: recovers a random 128-bit GIFT-64 key from
// cache observations on the paper-default platform, narrating the five
// methodology steps (Fig. 2 of the paper).
//
//   $ build/examples/full_key_recovery [hex-key]
#include <cstdio>
#include <string>

#include "attack/grinch.h"
#include "common/rng.h"
#include "target/registry.h"

using namespace grinch;

int main(int argc, char** argv) {
  Xoshiro256 rng{0xDE30};
  Key128 victim_key = rng.key128();
  if (argc > 1 && !Key128::from_hex(argv[1], victim_key)) {
    std::fprintf(stderr, "usage: %s [32-hex-digit key]\n", argv[0]);
    return 1;
  }

  std::printf("victim key (secret): %s\n\n", victim_key.to_hex().c_str());

  // Step 1 preview: Algorithm 1 for segment 0.
  const auto& t = target::Gift64Recovery::kTargetBits[0];
  std::printf("Algorithm 1 for segment 0: pin S-Box output bits %u (seg %u) "
              "and %u (seg %u)\n",
              t.bit_a, t.seg_a, t.bit_b, t.seg_b);
  std::printf("  list_a (inputs forcing a 1): ");
  for (unsigned x : t.list_a) std::printf("%x ", x);
  std::printf("\n  list_b (inputs forcing a 1): ");
  for (unsigned x : t.list_b) std::printf("%x ", x);
  std::printf("\n\n");

  // The platform: shared L1 (1024 lines, 16-way, 1-word lines), table-
  // based GIFT victim, Flush+Reload attacker, probe right after the
  // monitored round.
  target::Gift64Platform::Config pcfg;
  target::Gift64Platform platform{pcfg, victim_key};
  std::printf("platform: %s\n\n", pcfg.cache.describe().c_str());

  attack::GrinchConfig acfg;
  acfg.seed = 0x600D;
  attack::GrinchAttack attack{platform, acfg};
  const attack::AttackResult result = attack.run();

  for (unsigned s = 0; s < result.stages.size() && s < 4; ++s) {
    const attack::StageReport& st = result.stages[s];
    std::printf("stage %u (monitors cipher round %u): %s after %llu "
                "encryptions  -> round key u=%04x v=%04x\n",
                s, s + 2, st.success ? "resolved" : "FAILED",
                static_cast<unsigned long long>(st.encryptions),
                st.round_key.u, st.round_key.v);
  }

  if (!result.success) {
    std::printf("\nattack failed (budget exhausted)\n");
    return 1;
  }

  std::printf("\nrecovered key:       %s\n", result.recovered_key.to_hex().c_str());
  std::printf("total encryptions:   %llu (paper: < 400)\n",
              static_cast<unsigned long long>(result.total_encryptions));
  std::printf("key verified:        %s\n", result.key_verified ? "yes" : "no");
  std::printf("exact match:         %s\n",
              result.recovered_key == victim_key ? "yes" : "NO");
  return result.recovered_key == victim_key ? 0 : 1;
}
