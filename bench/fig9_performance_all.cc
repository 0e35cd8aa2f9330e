// Figure 9: total runtime of BiT-BS / BiT-BU / BiT-BU++ / BiT-PC on all 15
// datasets.  Runs exceeding the deadline print INF, mirroring the paper's
// 30-hour cap (BS is INF on the large datasets there; only PC finishes on
// the largest four).

#include <cstdio>

#include "bench_common.h"
#include "gen/dataset_suite.h"

int main() {
  using namespace bitruss;
  using namespace bitruss::bench;

  PrintBanner("Figure 9", "runtime of BS / BU / BU++ / PC on all datasets");

  TablePrinter table({"Dataset", "BS (s)", "BU (s)", "BU++ (s)", "PC (s)"});
  for (const std::string& name : DatasetNames()) {
    const BipartiteGraph& g = BenchDataset(name);
    const RunOutcome bs = TimedRun(g, Algorithm::kBS);
    const RunOutcome bu = TimedRun(g, Algorithm::kBU);
    const RunOutcome bupp = TimedRun(g, Algorithm::kBUPlusPlus);
    const RunOutcome pc = TimedRun(g, Algorithm::kPC);
    table.AddRow({name, FormatSeconds(bs), FormatSeconds(bu),
                  FormatSeconds(bupp), FormatSeconds(pc)});
    std::fflush(stdout);
  }
  table.Print();
  std::printf("\n(Expected shape: the BE-Index algorithms beat BS everywhere;"
              " BS hits INF on the largest datasets; PC wins where hub edges"
              " dominate.)\n");
  return 0;
}
