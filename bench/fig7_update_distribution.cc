// Figure 7: number of butterfly support updates binned by the edges'
// *original* butterfly supports, on the D-style stand-in, for BiT-BU,
// BiT-BU++ and BiT-PC.  The paper's observation: ~80% of BU++'s updates
// land on hub edges (the top support bins), and BiT-PC eliminates most of
// them.  Bin edges scale with the dataset's maximum support.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "butterfly/support_histogram.h"

int main() {
  using namespace bitruss;
  using namespace bitruss::bench;

  PrintBanner("Figure 7",
              "support updates binned by original edge support (D-style)");

  const BipartiteGraph& g = BenchDataset("D-style");

  const double tau = DecomposeOptions{}.tau;
  const RunOutcome bu = TimedRun(g, Algorithm::kBU, tau, true);
  const RunOutcome bupp = TimedRun(g, Algorithm::kBUPlusPlus, tau, true);
  const RunOutcome pc = TimedRun(g, Algorithm::kPC, tau, true);
  if (bu.timed_out || bupp.timed_out || pc.timed_out) {
    // Partial update counts would misrepresent the distribution.
    std::printf("timed out; raise BITRUSS_BENCH_TIMEOUT.\n");
    return 0;
  }

  // Scale the paper's absolute bins (<=5000 ... >20000 on real D-style) to
  // the stand-in.  Supports are power-law distributed, so geometric bin
  // edges anchored at the max spread the hub tail across bins the way the
  // paper's absolute edges do.
  const SupportT max_sup = bu.result.MaxSupport();
  const std::vector<SupportT> bounds = {
      std::max<SupportT>(1, max_sup / 64), std::max<SupportT>(2, max_sup / 16),
      std::max<SupportT>(3, max_sup / 4), std::max<SupportT>(4, max_sup / 2)};

  const auto histogram = [&](const RunOutcome& run) {
    SupportHistogram h(bounds);
    const auto& per_edge = run.result.counters.per_edge_updates;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      h.Add(run.result.original_support[e], per_edge[e]);
    }
    return h;
  };
  const SupportHistogram hbu = histogram(bu);
  const SupportHistogram hbupp = histogram(bupp);
  const SupportHistogram hpc = histogram(pc);

  TablePrinter table({"original sup(e) range", "BU updates", "BU++ updates",
                      "PC updates"});
  for (std::size_t bin = 0; bin < hbu.NumBins(); ++bin) {
    table.AddRow({hbu.BinLabel(bin), FormatCount(hbu.BinTotal(bin)),
                  FormatCount(hbupp.BinTotal(bin)),
                  FormatCount(hpc.BinTotal(bin))});
  }
  table.Print();

  // The paper's 80% observation, recomputed for the stand-in.
  const std::uint64_t total = bupp.result.counters.support_updates;
  std::uint64_t hub = 0;
  for (std::size_t bin = 1; bin < hbupp.NumBins(); ++bin) {
    hub += hbupp.BinTotal(bin);
  }
  std::printf("\nBU++ updates on edges above the first bin: %.1f%% of %llu\n",
              total ? 100.0 * static_cast<double>(hub) / total : 0.0,
              static_cast<unsigned long long>(total));
  return 0;
}
