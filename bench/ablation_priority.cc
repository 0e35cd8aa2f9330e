// Ablation (Definition 7): the degree-then-id priority is what bounds the
// number of priority-obeyed wedges — and therefore counting time, index
// construction time and BE-Index size — by O(sum min{d(u), d(v)}).  Rank
// vertices by id alone and all three blow up on skewed graphs, while every
// result stays identical (any total order preserves Lemma 3).

#include <cstdio>

#include "bench_common.h"
#include "butterfly/butterfly_counting.h"
#include "core/be_index_builder.h"
#include "graph/vertex_priority.h"
#include "util/memory_tracker.h"
#include "util/timer.h"

int main() {
  using namespace bitruss;
  using namespace bitruss::bench;

  PrintBanner("Ablation: vertex priority rule",
              "Definition 7 (degree,id) vs naive id-only ranking");

  TablePrinter table({"Dataset", "rule", "count (s)", "index build (s)",
                      "index (MiB)", "incidences"});
  for (const char* name : {"Github", "Twitter", "D-label", "D-style"}) {
    const BipartiteGraph& g = BenchDataset(name);
    for (const PriorityRule rule :
         {PriorityRule::kDegreeThenId, PriorityRule::kIdOnly}) {
      const VertexPriority prio = VertexPriority::Compute(g, rule);
      const PriorityAdjacency adj(g, prio);
      Timer timer;
      const std::vector<SupportT> sup = CountEdgeSupports(g.NumEdges(), adj);
      const double count_seconds = timer.Seconds();
      timer.Reset();
      const BEIndex index = BEIndexBuilder::Build(g, adj);
      const double build_seconds = timer.Seconds();
      // Two edge-wedge incidences (links) per stored wedge.
      const std::uint64_t incidences = index.edge_links.size();
      table.AddRow({name,
                    rule == PriorityRule::kDegreeThenId ? "degree,id"
                                                        : "id-only",
                    FormatDouble(count_seconds, 4),
                    FormatDouble(build_seconds, 4),
                    FormatDouble(BytesToMiB(index.MemoryBytes()), 2),
                    FormatCount(incidences)});
      std::fflush(stdout);
    }
  }
  table.Print();
  return 0;
}
