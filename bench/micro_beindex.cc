// Google-benchmark micro suite: BE-Index construction and edge removal
// (Lemma 5's O(sup(e)) removal is the paper's core speedup).

#include <benchmark/benchmark.h>

#include "butterfly/butterfly_counting.h"
#include "core/be_index_builder.h"
#include "core/peeling_state.h"
#include "gen/chung_lu.h"
#include "graph/vertex_priority.h"

namespace {

using namespace bitruss;

BipartiteGraph SkewedGraph(EdgeId m) {
  ChungLuParams p;
  p.num_upper = m / 6;
  p.num_lower = m / 6;
  p.num_edges = m;
  p.upper_exponent = 0.8;
  p.lower_exponent = 0.8;
  p.seed = 4242;
  return GenerateChungLu(p);
}

void BM_BuildBEIndex(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0));
  const VertexPriority prio = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, prio);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BEIndexBuilder::Build(g, adj));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_BuildBEIndex)->Arg(10000)->Arg(50000)->Arg(150000);

void BM_BuildCompressedIndexHalfAssigned(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0));
  const VertexPriority prio = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, prio);
  std::vector<std::uint8_t> assigned(g.NumEdges(), 0);
  for (EdgeId e = 0; e < g.NumEdges(); e += 2) assigned[e] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BEIndexBuilder::BuildCompressed(g.NumEdges(), adj, assigned, {}));
  }
}
BENCHMARK(BM_BuildCompressedIndexHalfAssigned)->Arg(50000);

// Full peel through the index: amortized O(#butterflies) total, i.e.
// O(sup(e)) per removed edge.
void BM_PeelThroughIndex(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0));
  const VertexPriority prio = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, prio);
  for (auto _ : state) {
    state.PauseTiming();
    BEIndex index = BEIndexBuilder::Build(g, adj);
    std::vector<SupportT> sup = CountEdgeSupports(g.NumEdges(), adj);
    UpdateCounters counters;
    Peeler peeler(std::move(index), std::move(sup), {}, &counters);
    state.ResumeTiming();
    peeler.Run(Peeler::Mode::kSingle, Deadline(), [](EdgeId, SupportT) {});
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_PeelThroughIndex)->Arg(10000)->Arg(50000);

}  // namespace

BENCHMARK_MAIN();
