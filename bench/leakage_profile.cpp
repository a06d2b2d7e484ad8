// Supplementary figure (ours): the leakage mechanism behind Fig. 3 and
// Table I, measured directly.
//
// The attack's power is the number of *absent* S-Box lines per probe —
// every absent line eliminates candidates.  This bench measures the mean
// number of distinct lines present as a function of probing round and
// line size, showing why effort explodes: presence saturates toward
// "every line cached" as the window widens or lines coarsen.
//
// Cells shard across the thread pool; each cell's (key, plaintext-stream
// seed) pair is pre-derived from the single 0x1EAC stream in the original
// nested (line size, round) draw order.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"

using namespace grinch;

int main(int argc, char** argv) {
  bench::BenchContext ctx{argc, argv};
  std::printf("Leakage profile — mean distinct S-Box lines present at the "
              "probe (flush enabled)\n\n");

  constexpr unsigned kEncryptions = 300;
  constexpr unsigned kMaxRound = 6;
  const std::vector<unsigned> word_sizes{1, 2, 4, 8};
  ctx.set_config("encryptions_per_cell", kEncryptions);

  const std::size_t n_cells = word_sizes.size() * kMaxRound;
  const std::vector<runner::TrialSeed> seeds =
      runner::derive_trial_seeds(0x1EAC, n_cells);

  runner::TrialRunner run{ctx.pool()};
  const std::vector<std::string> rendered = run.map<std::string>(
      n_cells, [&](std::size_t i) {
        const unsigned words = word_sizes[i / kMaxRound];
        const unsigned k = static_cast<unsigned>(i % kMaxRound) + 1;
        target::Gift64Platform::Config cfg;
        cfg.cache.line_bytes = words;
        cfg.probing_round = k;
        target::Gift64Platform platform{cfg, seeds[i].key};
        const auto line_ids = platform.index_line_ids();
        unsigned total_lines = 0;
        for (unsigned id : line_ids)
          total_lines = std::max(total_lines, id + 1);

        double present_sum = 0;
        Xoshiro256 pts{seeds[i].seed};
        for (unsigned e = 0; e < kEncryptions; ++e) {
          const target::Observation obs = platform.observe(pts.block64(), 0);
          std::vector<bool> line_seen(total_lines, false);
          for (unsigned idx = 0; idx < 16; ++idx) {
            if (obs.present[idx]) line_seen[line_ids[idx]] = true;
          }
          for (bool seen : line_seen) present_sum += seen;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.1f/%u",
                      present_sum / kEncryptions, total_lines);
        return std::string{buf};
      });

  AsciiTable table{"Lines present / lines total vs probing round"};
  std::vector<std::string> header{"line size"};
  for (unsigned k = 1; k <= kMaxRound; ++k)
    header.push_back("round " + std::to_string(k));
  table.set_header(header);

  for (std::size_t w = 0; w < word_sizes.size(); ++w) {
    std::vector<std::string> row{std::to_string(word_sizes[w]) + "B"};
    for (unsigned k = 0; k < kMaxRound; ++k)
      row.push_back(rendered[w * kMaxRound + k]);
    table.add_row(row);
  }
  ctx.print_table(table);
  std::printf("Reading: elimination power per probe ~ (total - present).\n"
              "1-byte lines keep ~5 absent lines at round 1; by round 6, or\n"
              "with 4+-byte lines, almost nothing is absent — the mechanism\n"
              "behind Fig. 3's exponential growth and Table I's drop-outs.\n");
  return ctx.finish();
}
