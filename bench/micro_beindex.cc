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
  std::uint64_t bytes = 0;
  std::uint64_t wedges = 0;
  for (auto _ : state) {
    const BEIndex index = BEIndexBuilder::Build(g, adj);
    bytes = index.MemoryBytes();
    wedges = index.slot_edges.size();
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
  // Per stored wedge, with the per-edge and per-bloom arrays counted in.
  state.counters["bytes_per_wedge"] =
      wedges == 0 ? 0.0
                  : static_cast<double>(bytes) / static_cast<double>(wedges);
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
// O(sup(e)) per removed edge.  BU removes one edge at a time; BU++ a whole
// level, killing its wedges through the edges' links and partitioning
// each bloom it touched.
void BM_PeelThroughIndex(benchmark::State& state, Peeler::Mode mode) {
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
    benchmark::DoNotOptimize(
        peeler.Run(mode, Deadline(), [](EdgeId, SupportT) {}));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK_CAPTURE(BM_PeelThroughIndex, BU, Peeler::Mode::kSingle)
    ->Arg(10000)
    ->Arg(50000);
BENCHMARK_CAPTURE(BM_PeelThroughIndex, BUPlusPlus, Peeler::Mode::kBatchBlooms)
    ->Arg(10000)
    ->Arg(50000);

}  // namespace

BENCHMARK_MAIN();
