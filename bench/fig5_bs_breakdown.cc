// Figure 5: time cost of BiT-BS split into counting vs peeling on Github,
// Twitter, D-label and D-style.  The peeling phase dominating by orders of
// magnitude is the paper's motivation for the BE-Index.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace bitruss;
  using namespace bitruss::bench;

  PrintBanner("Figure 5", "BiT-BS counting vs peeling time breakdown");

  TablePrinter table(
      {"Dataset", "counting (s)", "peeling (s)", "peel/count ratio"});
  for (const char* name : {"Github", "Twitter", "D-label", "D-style"}) {
    const BipartiteGraph& g = BenchDataset(name);
    const RunOutcome run = TimedRun(g, Algorithm::kBS);
    const double counting = run.result.counters.counting_seconds;
    const double peeling = run.result.counters.peeling_seconds;
    table.AddRow({name, FormatDouble(counting, 4),
                  run.timed_out ? "INF" : FormatDouble(peeling, 4),
                  run.timed_out
                      ? ">" + FormatDouble(peeling / std::max(counting, 1e-9), 1)
                      : FormatDouble(peeling / std::max(counting, 1e-9), 1)});
    std::fflush(stdout);
  }
  table.Print();
  std::printf("\n(The paper reports the peeling phase dominating BiT-BS on "
              "all four datasets.)\n");
  return 0;
}
