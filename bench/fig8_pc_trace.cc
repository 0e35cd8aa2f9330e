// Figure 8 (illustration made measurable): BiT-PC's progressive
// compression.  Per iteration: the threshold theta, the candidate subgraph
// size, how many bitruss numbers were fixed, and the compressed index
// footprint — showing the candidate shrinking from G>=kmax toward G>=0
// while hub edges are assigned early and compressed away.
//
// The rows come from BitrussResult::pc_trace, which Decompose fills once per
// theta round, so this harness reads what the decomposition actually did
// instead of keeping its own side channel.

#include <cstdio>

#include "bench_common.h"
#include "util/memory_tracker.h"

int main() {
  using namespace bitruss;
  using namespace bitruss::bench;

  PrintBanner("Figure 8", "BiT-PC progressive compression trace (D-style)");

  const BipartiteGraph& g = BenchDataset("D-style");
  const RunOutcome pc = TimedRun(g, Algorithm::kPC, /*tau=*/0.1);
  if (pc.timed_out) {
    std::printf("PC timed out; raise BITRUSS_BENCH_TIMEOUT.\n");
    return 0;
  }

  TablePrinter table({"iter", "theta", "candidate |E|", "assigned",
                      "index (MiB)", "round (s)"});
  std::size_t iter = 0;
  for (const PCIterationTrace& round : pc.result.pc_trace) {
    table.AddRow({std::to_string(++iter), FormatCount(round.theta),
                  FormatCount(round.candidate_edges),
                  FormatCount(round.assigned_now),
                  FormatDouble(BytesToMiB(round.index_bytes), 2),
                  FormatDouble(round.seconds, 4)});
  }
  table.Print();
  std::printf("\ntotal: %u edges over %zu iterations, %.3fs\n", g.NumEdges(),
              iter, pc.seconds);
  return 0;
}
