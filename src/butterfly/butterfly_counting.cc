#include "butterfly/butterfly_counting.h"

#include "butterfly/wedge_enumeration.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace bitruss {

namespace {

constexpr auto kNoopAnchorDone = [](const std::vector<VertexId>&) {};

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

// Chunks per thread: enough slack that the hub-heavy low-rank anchors (the
// bulk of the wedge work under the degree priority) spread across the pool
// instead of pinning to whichever thread drew the first chunk.
constexpr unsigned kChunksPerThread = 8;

}  // namespace

std::vector<SupportT> CountEdgeSupports(const BipartiteGraph& g,
                                        const PriorityAdjacency& adj) {
  const CountingMetrics& metrics = CountingMetrics::Get();
  Timer timer;
  std::vector<SupportT> sup(g.NumEdges(), 0);
  internal::ForEachBloom<true>(
      adj, [](VertexId, SupportT) {},
      [&](VertexId, SupportT c, EdgeId anchor_edge, EdgeId far_edge) {
        sup[anchor_edge] += c - 1;
        sup[far_edge] += c - 1;
      },
      kNoopAnchorDone);
  metrics.runs->Inc();
  metrics.seconds->Observe(timer.Seconds());
  return sup;
}

std::vector<SupportT> CountEdgeSupports(const BipartiteGraph& g) {
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  return CountEdgeSupports(g, adj);
}

std::vector<SupportT> CountEdgeSupports(const BipartiteGraph& g,
                                        const PriorityAdjacency& adj,
                                        ThreadPool* pool) {
  if (pool == nullptr || pool->NumThreads() <= 1) {
    return CountEdgeSupports(g, adj);
  }
  const EdgeId m = g.NumEdges();
  const VertexId n = adj.NumVertices();
  const CountingMetrics& metrics = CountingMetrics::Get();
  Timer timer;
  const unsigned num_threads = pool->NumThreads();
  std::vector<std::vector<SupportT>> partial(num_threads);
  std::vector<internal::BloomScratch> scratch(num_threads);

  pool->ParallelForChunks(
      0, n, num_threads * kChunksPerThread,
      [&](std::uint64_t begin, std::uint64_t end, unsigned, unsigned thread) {
        std::vector<SupportT>& sup = partial[thread];
        if (sup.empty()) {
          sup.assign(m, 0);
          scratch[thread].Prepare(n);
        }
        internal::ForEachBloomRange<true>(
            adj, static_cast<VertexId>(begin), static_cast<VertexId>(end),
            scratch[thread], [](VertexId, SupportT) {},
            [&](VertexId, SupportT c, EdgeId anchor_edge, EdgeId far_edge) {
              sup[anchor_edge] += c - 1;
              sup[far_edge] += c - 1;
            },
            kNoopAnchorDone);
      });

  // Deterministic merge: sup(e) is a per-edge integer sum over the thread
  // partials, independent of which thread ran which chunk.
  std::vector<SupportT> sup(m, 0);
  pool->ParallelFor(0, m, [&](std::uint64_t begin, std::uint64_t end,
                              unsigned) {
    for (const std::vector<SupportT>& part : partial) {
      if (part.empty()) continue;
      for (std::uint64_t e = begin; e < end; ++e) {
        sup[e] += part[e];
      }
    }
  });
  metrics.runs->Inc();
  metrics.seconds->Observe(timer.Seconds());
  return sup;
}

std::uint64_t CountTotalButterflies(const BipartiteGraph& g,
                                    const PriorityAdjacency& adj) {
  (void)g;
  std::uint64_t total = 0;
  internal::ForEachBloom<false>(
      adj,
      [&](VertexId, SupportT c) {
        total += static_cast<std::uint64_t>(c) * (c - 1) / 2;
      },
      [](VertexId, SupportT, EdgeId, EdgeId) {}, kNoopAnchorDone);
  return total;
}

std::uint64_t CountTotalButterflies(const BipartiteGraph& g) {
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  return CountTotalButterflies(g, adj);
}

}  // namespace bitruss
