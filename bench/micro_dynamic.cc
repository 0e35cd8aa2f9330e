// Google-benchmark micro suite: DynamicBipartiteGraph primitives — seeding
// from CSR, mixed insert/delete round-trips with incremental support
// maintenance, pure insertion streams, and Snapshot() compaction back to
// CSR.

#include <benchmark/benchmark.h>

#include "dynamic/dynamic_graph.h"
#include "gen/chung_lu.h"
#include "util/random.h"

namespace {

using namespace bitruss;

BipartiteGraph SkewedGraph(EdgeId m, double exponent = 0.8) {
  ChungLuParams p;
  p.num_upper = m / 6;
  p.num_lower = m / 6;
  p.num_edges = m;
  p.upper_exponent = exponent;
  p.lower_exponent = exponent;
  p.seed = 12345;
  return GenerateChungLu(p);
}

void BM_DynamicSeedFromCsr(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0));
  for (auto _ : state) {
    DynamicBipartiteGraph dynamic(g);
    benchmark::DoNotOptimize(dynamic.NumButterflies());
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_DynamicSeedFromCsr)->Arg(20000)->Arg(80000);

void BM_DynamicInsertDelete(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0));
  DynamicBipartiteGraph dynamic(g);
  Rng rng(99);
  for (auto _ : state) {
    const auto u = static_cast<VertexId>(rng.Below(g.NumUpper()));
    const auto v = static_cast<VertexId>(rng.Below(g.NumLower()));
    auto inserted = dynamic.InsertEdge(u, v);
    if (inserted.ok()) {
      benchmark::DoNotOptimize(dynamic.DeleteEdge(inserted.value()));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DynamicInsertDelete)->Arg(20000)->Arg(80000);

void BM_DynamicMixedStream(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0));
  DynamicBipartiteGraph dynamic(g);
  Rng rng(7);
  std::vector<EdgeId> inserted;
  for (auto _ : state) {
    if (!inserted.empty() && rng.NextBool(0.5)) {
      const std::size_t pick = rng.Below(inserted.size());
      benchmark::DoNotOptimize(dynamic.DeleteEdge(inserted[pick]));
      inserted[pick] = inserted.back();
      inserted.pop_back();
    } else {
      const auto u = static_cast<VertexId>(rng.Below(g.NumUpper()));
      const auto v = static_cast<VertexId>(rng.Below(g.NumLower()));
      auto result = dynamic.InsertEdge(u, v);
      if (result.ok()) inserted.push_back(result.value());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DynamicMixedStream)->Arg(20000)->Arg(80000);

void BM_DynamicSnapshot(benchmark::State& state) {
  const BipartiteGraph g = SkewedGraph(state.range(0));
  DynamicBipartiteGraph dynamic(g);
  // Churn a fraction of the edges so the snapshot pays for free-list holes.
  Rng rng(3);
  for (int i = 0; i < state.range(0) / 10; ++i) {
    const auto u = static_cast<VertexId>(rng.Below(g.NumUpper()));
    const auto v = static_cast<VertexId>(rng.Below(g.NumLower()));
    const EdgeId e = dynamic.FindEdge(u, g.NumUpper() + v);
    if (e != kInvalidEdge) {
      (void)dynamic.DeleteEdge(e);
    } else {
      (void)dynamic.InsertEdge(u, v);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynamic.Snapshot());
  }
  state.SetItemsProcessed(state.iterations() * dynamic.NumEdges());
}
BENCHMARK(BM_DynamicSnapshot)->Arg(20000)->Arg(80000);

}  // namespace

BENCHMARK_MAIN();
