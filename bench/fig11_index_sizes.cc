// Figure 11: size of the online indexes (MB) constructed by BiT-BU,
// BiT-BU++ and BiT-PC on Github, D-label, D-style and Wiki-it.  BU and
// BU++ share one full BE-Index; PC reports the largest compressed
// per-iteration index, which is strictly smaller.

#include <cstdio>

#include "bench_common.h"
#include "util/memory_tracker.h"

int main() {
  using namespace bitruss;
  using namespace bitruss::bench;

  PrintBanner("Figure 11", "online index sizes (MiB) of BU / BU++ / PC");

  TablePrinter table(
      {"Dataset", "BU (MiB)", "BU++ (MiB)", "PC peak (MiB)", "PC/BU"});
  for (const char* name : {"Github", "D-label", "D-style", "Wiki-it"}) {
    const BipartiteGraph& g = BenchDataset(name);
    const RunOutcome bu = TimedRun(g, Algorithm::kBU);
    const RunOutcome bupp = TimedRun(g, Algorithm::kBUPlusPlus);
    const RunOutcome pc = TimedRun(g, Algorithm::kPC);
    const auto mib = [](const RunOutcome& r) {
      // A timed-out run has not built all its per-round indexes, so its
      // peak would understate the real footprint.
      if (r.timed_out) return std::string("INF");
      return FormatDouble(BytesToMiB(r.result.counters.peak_index_bytes), 2);
    };
    std::string ratio = "-";
    if (!bu.timed_out && !pc.timed_out &&
        bu.result.counters.peak_index_bytes > 0) {
      ratio = FormatDouble(
          static_cast<double>(pc.result.counters.peak_index_bytes) /
              static_cast<double>(bu.result.counters.peak_index_bytes),
          3);
    }
    table.AddRow({name, mib(bu), mib(bupp), mib(pc), ratio});
    std::fflush(stdout);
  }
  table.Print();
  return 0;
}
