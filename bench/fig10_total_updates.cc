// Figure 10: the total number of butterfly support updates performed by
// BiT-BU, BiT-BU++ and BiT-PC on Github, D-label, D-style and Wiki-it.
// BU++'s batching reduces updates versus BU; PC's progressive compression
// cuts the bulk of the remaining (hub-edge) updates.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace bitruss;
  using namespace bitruss::bench;

  PrintBanner("Figure 10", "total butterfly support updates (BU/BU++/PC)");

  TablePrinter table(
      {"Dataset", "BU updates", "BU++ updates", "PC updates", "PC/BU"});
  for (const char* name : {"Github", "D-label", "D-style", "Wiki-it"}) {
    const BipartiteGraph& g = BenchDataset(name);
    const RunOutcome bu = TimedRun(g, Algorithm::kBU);
    const RunOutcome bupp = TimedRun(g, Algorithm::kBUPlusPlus);
    const RunOutcome pc = TimedRun(g, Algorithm::kPC);
    const auto fmt = [](const RunOutcome& r) {
      return r.timed_out ? std::string("INF")
                         : FormatCount(r.result.counters.support_updates);
    };
    std::string ratio = "-";
    if (!bu.timed_out && !pc.timed_out &&
        bu.result.counters.support_updates > 0) {
      ratio = FormatDouble(
          static_cast<double>(pc.result.counters.support_updates) /
              static_cast<double>(bu.result.counters.support_updates),
          3);
    }
    table.AddRow({name, fmt(bu), fmt(bupp), fmt(pc), ratio});
    std::fflush(stdout);
  }
  table.Print();
  return 0;
}
