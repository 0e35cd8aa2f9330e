// Figure 8 (illustration made measurable): BiT-PC's progressive
// compression.  Per iteration: the threshold theta, the candidate subgraph
// size, how many bitruss numbers were fixed, and the compressed index
// footprint — showing the candidate shrinking from G>=kmax toward G>=0
// while hub edges are assigned early and compressed away.
//
// The rows come from the observability layer's span trace: RunPC records
// one "pc/round" span per theta with the candidate/assigned/index-bytes
// numbers as notes, so this harness reads what the decomposition actually
// did instead of keeping its own side channel.

#include <cstdio>

#include "bench_common.h"
#include "obs/trace.h"
#include "util/memory_tracker.h"

namespace {

double NoteValue(const bitruss::obs::SpanRecord& span, const char* key) {
  for (const auto& [name, value] : span.notes) {
    if (name == key) return value;
  }
  return 0;
}

}  // namespace

int main() {
  using namespace bitruss;
  using namespace bitruss::bench;

  PrintBanner("Figure 8", "BiT-PC progressive compression trace (D-style)");

  const BipartiteGraph& g = BenchDataset("D-style");
  obs::TraceRecorder trace;
  const RunOutcome pc = TimedRun(g, Algorithm::kPC, /*tau=*/0.1,
                                 /*track_per_edge=*/false, &trace);
  if (pc.timed_out) {
    std::printf("PC timed out; raise BITRUSS_BENCH_TIMEOUT.\n");
    return 0;
  }

  TablePrinter table({"iter", "theta", "candidate |E|", "assigned",
                      "index (MiB)", "round (s)"});
  std::size_t iter = 0;
  for (const obs::SpanRecord& span : trace.Events()) {
    if (span.name != "pc/round") continue;
    table.AddRow({std::to_string(++iter),
                  FormatCount(static_cast<std::uint64_t>(
                      NoteValue(span, "theta"))),
                  FormatCount(static_cast<std::uint64_t>(
                      NoteValue(span, "candidate_edges"))),
                  FormatCount(static_cast<std::uint64_t>(
                      NoteValue(span, "assigned"))),
                  FormatDouble(BytesToMiB(static_cast<std::uint64_t>(
                                   NoteValue(span, "index_bytes"))),
                               2),
                  FormatDouble(span.duration_seconds, 4)});
  }
  table.Print();
  std::printf("\ntotal: %u edges over %zu iterations, %.3fs\n", g.NumEdges(),
              iter, pc.seconds);
  std::printf("\n-- phase trace --\n%s", trace.IndentedSummary().c_str());
  return 0;
}
