// Google-benchmark micro suite: butterfly counting primitives underlying
// every decomposition phase (the O(sum min{d(u),d(v)}) counting claim).

#include <benchmark/benchmark.h>

#include "butterfly/butterfly_counting.h"
#include "gen/chung_lu.h"
#include "gen/random_bipartite.h"
#include "graph/vertex_priority.h"
#include "util/thread_pool.h"

namespace {

using namespace bitruss;

BipartiteGraph SkewedGraph(EdgeId m, double exponent) {
  ChungLuParams p;
  p.num_upper = m / 6;
  p.num_lower = m / 6;
  p.num_edges = m;
  p.upper_exponent = exponent;
  p.lower_exponent = exponent;
  p.seed = 12345;
  return GenerateChungLu(p);
}

void BM_VertexPriority(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0), 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VertexPriority::Compute(g));
  }
  state.SetItemsProcessed(state.iterations() * g.NumVertices());
}
BENCHMARK(BM_VertexPriority)->Arg(10000)->Arg(50000);

void BM_PriorityAdjacency(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0), 0.8);
  const VertexPriority prio = VertexPriority::Compute(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PriorityAdjacency(g, prio));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_PriorityAdjacency)->Arg(10000)->Arg(50000);

void BM_CountEdgeSupports(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0), 0.8);
  const VertexPriority prio = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, prio);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountEdgeSupports(g.NumEdges(), adj));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_CountEdgeSupports)->Arg(10000)->Arg(50000)->Arg(150000);

// Thread scaling of the anchor-partitioned parallel counter; {edges,
// threads}.  A 1-thread pool takes the same inline path as no pool, so
// the x1 row is a baseline equal to BM_CountEdgeSupports above; the x2+
// rows measure chunked-path scaling against it.
void BM_CountEdgeSupportsThreads(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0), 0.8);
  const VertexPriority prio = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, prio);
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountEdgeSupports(g.NumEdges(), adj, &pool));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_CountEdgeSupportsThreads)
    ->Args({150000, 1})
    ->Args({150000, 2})
    ->Args({150000, 4})
    ->Args({150000, 8});

void BM_CountTotalUniformVsSkewed(benchmark::State& state) {
  const bool skewed = state.range(1) != 0;
  const BipartiteGraph g =
      skewed ? SkewedGraph(state.range(0), 0.9)
             : GenerateUniformBipartite(state.range(0) / 6,
                                        state.range(0) / 6, state.range(0),
                                        777);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTotalButterflies(g));
  }
}
BENCHMARK(BM_CountTotalUniformVsSkewed)
    ->Args({50000, 0})
    ->Args({50000, 1});

}  // namespace

BENCHMARK_MAIN();
