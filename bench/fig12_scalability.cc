// Figure 12: scalability of BiT-BU, BiT-BU++ and BiT-PC when sampling 20%
// to 100% of the vertices of Github, D-label, D-style and Wiki-it (induced
// subgraphs, the paper's protocol).  "Tracker-XL" (bench-only, ~1M edges at
// scale 1) extends the sweep past the default suite's 200k-edge ceiling;
// set BITRUSS_NUM_THREADS to run the counting/index phases over a pool.

#include <cstdio>

#include "bench_common.h"
#include "graph/subgraph.h"

int main() {
  using namespace bitruss;
  using namespace bitruss::bench;

  PrintBanner("Figure 12", "runtime vs vertex sample percentage");

  for (const char* name :
       {"Github", "D-label", "D-style", "Wiki-it", "Tracker-XL"}) {
    const BipartiteGraph& full = BenchDataset(name);
    std::printf("\n[%s]\n", name);
    TablePrinter table(
        {"sample %", "|E|", "BU (s)", "BU++ (s)", "PC (s)"});
    for (const unsigned pct : {20u, 40u, 60u, 80u, 100u}) {
      const BipartiteGraph sampled =
          pct == 100 ? BipartiteGraph(full)
                     : InducedVertexSample(full, pct, /*seed=*/1234 + pct);
      const RunOutcome bu = TimedRun(sampled, Algorithm::kBU);
      const RunOutcome bupp = TimedRun(sampled, Algorithm::kBUPlusPlus);
      const RunOutcome pc = TimedRun(sampled, Algorithm::kPC);
      table.AddRow({std::to_string(pct), FormatCount(sampled.NumEdges()),
                    FormatSeconds(bu), FormatSeconds(bupp),
                    FormatSeconds(pc)});
      std::fflush(stdout);
    }
    table.Print();
  }
  return 0;
}
