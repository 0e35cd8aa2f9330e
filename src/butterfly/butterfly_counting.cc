#include "butterfly/butterfly_counting.h"

#include "butterfly/wedge_enumeration.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace bitruss {

namespace {

// Support-count telemetry.  Each full CountEdgeSupports pass is one run;
// the delegating overloads don't double-count (only compute sites report).
struct CountingMetrics {
  obs::Counter* runs;
  obs::Histogram* seconds;

  static const CountingMetrics& Get() {
    static const CountingMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Default();
      return CountingMetrics{
          registry.GetCounter("bitruss_butterfly_count_runs_total"),
          registry.GetHistogram("bitruss_butterfly_count_seconds",
                                obs::ExponentialBuckets(1e-5, 2.0, 21)),
      };
    }();
    return metrics;
  }
};

// Chunks per thread of a pooled pass: the chunks carry about equal wedge
// work (AnchorChunkBounds), and the slack absorbs what one hub anchor's
// walk adds to its chunk.
constexpr unsigned kChunksPerThread = 8;

}  // namespace

std::vector<SupportT> CountEdgeSupports(EdgeId num_edges,
                                        const PriorityAdjacency& adj,
                                        ThreadPool* pool) {
  const VertexId n = adj.NumVertices();
  const CountingMetrics& metrics = CountingMetrics::Get();
  Timer timer;
  ThreadPool inline_pool(1);
  ThreadPool& run = pool != nullptr ? *pool : inline_pool;
  const unsigned num_threads = run.NumThreads();
  const std::vector<VertexId> bounds =
      num_threads == 1
          ? std::vector<VertexId>{0, n}
          : internal::AnchorChunkBounds(internal::AnchorWorkPrefix(adj),
                                        num_threads * kChunksPerThread);
  const unsigned num_chunks = static_cast<unsigned>(bounds.size() - 1);
  std::vector<std::vector<SupportT>> partial(num_threads);
  std::vector<internal::BloomScratch> scratch(num_threads);
  run.ParallelForChunks(
      0, num_chunks, num_chunks,
      [&](std::uint64_t, std::uint64_t, unsigned chunk, unsigned thread) {
        if (bounds[chunk] == bounds[chunk + 1]) return;
        std::vector<SupportT>& sup = partial[thread];
        if (sup.empty()) {
          sup.assign(num_edges, 0);
          scratch[thread].Prepare(n);
        }
        internal::ForEachBloomRange<true>(
            adj, bounds[chunk], bounds[chunk + 1], scratch[thread],
            [](VertexId, SupportT) {},
            [&](VertexId, SupportT c, EdgeId anchor_edge, EdgeId far_edge) {
              sup[anchor_edge] += c - 1;
              sup[far_edge] += c - 1;
            });
      });

  // Deterministic merge: sup(e) is a per-edge integer sum over the thread
  // partials, independent of which thread ran which chunk.
  std::vector<SupportT> sup = std::move(partial[0]);
  sup.resize(num_edges, 0);
  run.ParallelFor(0, num_edges, [&](std::uint64_t begin, std::uint64_t end,
                                    unsigned) {
    for (unsigned t = 1; t < num_threads; ++t) {
      if (partial[t].empty()) continue;
      for (std::uint64_t e = begin; e < end; ++e) sup[e] += partial[t][e];
    }
  });
  metrics.runs->Inc();
  metrics.seconds->Observe(timer.Seconds());
  return sup;
}

std::vector<SupportT> CountEdgeSupports(const BipartiteGraph& g) {
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  return CountEdgeSupports(g.NumEdges(), adj);
}

std::uint64_t CountTotalButterflies(const PriorityAdjacency& adj) {
  internal::BloomScratch scratch;
  scratch.Prepare(adj.NumVertices());
  std::uint64_t total = 0;
  internal::ForEachBloomRange<false>(
      adj, 0, adj.NumVertices(), scratch,
      [&](VertexId, SupportT c) {
        total += static_cast<std::uint64_t>(c) * (c - 1) / 2;
      },
      [](VertexId, SupportT, EdgeId, EdgeId) {});
  return total;
}

std::uint64_t CountTotalButterflies(const BipartiteGraph& g) {
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  return CountTotalButterflies(adj);
}

}  // namespace bitruss
