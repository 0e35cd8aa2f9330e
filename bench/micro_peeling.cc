// Google-benchmark micro suite: end-to-end decomposition algorithms on a
// fixed skewed instance — the per-algorithm costs behind Figures 9 and 13.

#include <benchmark/benchmark.h>

#include "core/decompose.h"
#include "gen/chung_lu.h"

namespace {

using namespace bitruss;

const BipartiteGraph& SharedGraph() {
  static const BipartiteGraph* graph = [] {
    ChungLuParams p;
    p.num_upper = 8000;
    p.num_lower = 2000;
    p.num_edges = 50000;
    p.upper_exponent = 0.7;
    p.lower_exponent = 0.8;
    p.seed = 31415;
    return new BipartiteGraph(GenerateChungLu(p));
  }();
  return *graph;
}

void RunAlgorithm(benchmark::State& state, Algorithm algorithm, double tau) {
  const BipartiteGraph& g = SharedGraph();
  DecomposeOptions options;
  options.algorithm = algorithm;
  options.tau = tau;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Decompose(g, options));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}

void BM_DecomposeBS(benchmark::State& state) {
  RunAlgorithm(state, Algorithm::kBS, 0.02);
}
void BM_DecomposeBU(benchmark::State& state) {
  RunAlgorithm(state, Algorithm::kBU, 0.02);
}
void BM_DecomposeBUPlus(benchmark::State& state) {
  RunAlgorithm(state, Algorithm::kBUPlus, 0.02);
}
void BM_DecomposeBUPlusPlus(benchmark::State& state) {
  RunAlgorithm(state, Algorithm::kBUPlusPlus, 0.02);
}
void BM_DecomposePCTau002(benchmark::State& state) {
  RunAlgorithm(state, Algorithm::kPC, 0.02);
}
void BM_DecomposePCTau02(benchmark::State& state) {
  RunAlgorithm(state, Algorithm::kPC, 0.2);
}

BENCHMARK(BM_DecomposeBS)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecomposeBU)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecomposeBUPlus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecomposeBUPlusPlus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecomposePCTau002)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecomposePCTau02)->Unit(benchmark::kMillisecond);

// Thread scaling of the pipeline: BU++ with parallel counting and index
// construction (peel sequential).  Arg = thread count.
void BM_DecomposeBUPlusPlusThreads(benchmark::State& state) {
  const BipartiteGraph& g = SharedGraph();
  DecomposeOptions options;
  options.algorithm = Algorithm::kBUPlusPlus;
  options.parallel.num_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Decompose(g, options));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_DecomposeBUPlusPlusThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
