#include "core/decompose.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <type_traits>

#include "butterfly/butterfly_counting.h"
#include "core/be_index_builder.h"
#include "core/peeling_state.h"
#include "dynamic/dynamic_graph.h"
#include "graph/vertex_priority.h"
#include "obs/metrics.h"

namespace bitruss {

namespace {

constexpr std::uint32_t kDeadlinePollInterval = 256;

// Registry handles are fetched once per process; the decompose phases then
// pay one atomic op per report.  Seconds buckets span 10us..~10s, so a
// small graph's fallback recompute still lands inside the layout.
struct DecomposeMetrics {
  obs::Counter* runs;
  obs::Histogram* counting_seconds;
  obs::Histogram* peeling_seconds;
  obs::Counter* pc_rounds;

  static const DecomposeMetrics& Get() {
    static const DecomposeMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Default();
      const std::vector<double> seconds =
          obs::ExponentialBuckets(1e-5, 2.0, 21);
      return DecomposeMetrics{
          registry.GetCounter("bitruss_core_decompose_runs_total"),
          registry.GetHistogram("bitruss_core_counting_seconds", seconds),
          registry.GetHistogram("bitruss_core_peeling_seconds", seconds),
          registry.GetCounter("bitruss_core_pc_rounds_total"),
      };
    }();
    return metrics;
  }
};

// BiT-BS peeling: the peel deletes each taken edge from a
// DynamicBipartiteGraph copy, whose DeleteEdge re-enumerates the removed
// edge's butterflies on the current (shrinking) graph and reports the
// three other edges of each; every reported edge takes one support update.
// O(d(t) + sum_{x in N(s)} d(x)) per removal, s the endpoint of smaller
// degree and t the other.  DeleteEdge skips the walk of an edge at support
// 0, which lies in no surviving butterfly, and answers kNotFound for a
// free slot, which is taken at level 0 and updates nothing.
void PeelBS(DynamicBipartiteGraph g, std::vector<SupportT> sup,
            const DecomposeOptions& options, BitrussResult* result) {
  SupportBuckets queue(sup, {});
  const bool track = options.track_per_edge_updates;
  const auto update = [&](EdgeId e) {
    ++result->counters.support_updates;
    if (track) ++result->counters.per_edge_updates[e];
    if (sup[e] > 0) {
      queue.Move(e, sup[e], sup[e] - 1);
      --sup[e];
    }
  };

  SupportT level = 0;
  std::uint32_t since_poll = 0;
  std::vector<EdgeId> taken;
  UpdateDelta delta;
  for (;;) {
    if (++since_poll >= kDeadlinePollInterval) {
      since_poll = 0;
      if (options.deadline.Expired()) {
        result->timed_out = true;
        return;
      }
    }
    const SupportT at = queue.TakeLowest(1, &taken, sup);
    if (taken.empty()) break;
    level = std::max(level, at);
    const EdgeId e = taken.front();
    result->phi[e] = level;
    if (!g.DeleteEdge(e, &delta).ok()) continue;  // a free slot
    for (const EdgeId f : delta.touched) update(f);
  }
}

// The graph BiT-BS peels: a slot table is copied as is, and a CSR graph is
// seeded with its counted supports.
DynamicBipartiteGraph PeelCopy(const BipartiteGraph& g,
                               const std::vector<SupportT>& sup) {
  return DynamicBipartiteGraph(g, sup);
}
DynamicBipartiteGraph PeelCopy(const DynamicBipartiteGraph& g,
                               const std::vector<SupportT>& /*sup*/) {
  return g;
}

void RunIndexed(BEIndex index, std::vector<SupportT> sup, Peeler::Mode mode,
                const DecomposeOptions& options, BitrussResult* result) {
  result->counters.peak_index_bytes = index.MemoryBytes();
  Peeler peeler(std::move(index), std::move(sup), {}, &result->counters);
  const Timer timer;
  const bool completed =
      peeler.Run(mode, options.deadline,
                 [&](EdgeId e, SupportT level) { result->phi[e] = level; });
  result->counters.peeling_seconds = timer.Seconds();
  result->timed_out = !completed;
}

// BiT-PC.  Rounds iterate a strictly decreasing support threshold theta.
// Each round restricts to the theta-bitruss of g — computed by cascade
// *recounting* (counting passes, not support updates; that exchange is
// exactly the progressive-compression trade) — and peels it with all
// previously assigned edges frozen and their mutual wedges compressed into
// bloom base counts.  Every edge of the theta-bitruss has phi >= theta, so
// the round assigns every edge it peels, each edge is peeled exactly once
// across the whole run, and hub edges never absorb the low-level update
// storm (Figure 7's observation).
void RunPC(EdgeId m, const PriorityAdjacency& adj,
           const std::vector<SupportT>& sup_g, const DecomposeOptions& options,
           ThreadPool* pool, BitrussResult* result) {
  Timer timer;
  std::vector<std::uint8_t> assigned(m, 0);
  std::vector<std::uint8_t> included(m, 0);
  EdgeId unassigned = m;

  const double tau = std::clamp(options.tau, 1e-6, 1.0);
  const EdgeId per_round = std::max<EdgeId>(
      1, static_cast<EdgeId>(std::llround(std::ceil(tau * m))));

  // Theta ladder: every per_round-th value of the descending original
  // support sequence, deduplicated, ending at 0.  The round count is
  // therefore ~1/tau regardless of how phi relates to sup_G, which is the
  // knob Figure 14 sweeps.
  std::vector<std::uint64_t> ladder;
  {
    std::vector<SupportT> sorted = sup_g;
    std::sort(sorted.begin(), sorted.end(), std::greater<SupportT>());
    for (std::size_t r = per_round - 1; r < sorted.size(); r += per_round) {
      if (ladder.empty() || sorted[r] < ladder.back()) {
        ladder.push_back(sorted[r]);
      }
    }
    if (ladder.empty() || ladder.back() > 0) ladder.push_back(0);
  }
  // Per-edge upper bound on phi, tightened every time a cascade evicts the
  // edge from a theta-bitruss; keeps later rounds' seed subgraphs small.
  std::vector<SupportT> phi_bound = sup_g;

  for (const std::uint64_t theta : ladder) {
    if (unassigned == 0) break;
    if (options.deadline.Expired()) {
      result->timed_out = true;
      break;
    }
    DecomposeMetrics::Get().pc_rounds->Inc();
    const Timer round_timer;

    // Candidate = theta-bitruss: seed with assigned edges (phi >= theta by
    // construction) plus unassigned edges whose phi bound allows theta,
    // then cascade-recount until every candidate has in-subgraph support
    // >= theta.  Recounting is counting work, not support updates — that
    // exchange is the essence of progressive compression.
    for (EdgeId e = 0; e < m; ++e) {
      included[e] = assigned[e] || phi_bound[e] >= theta;
    }
    // Cascade until every unassigned candidate holds in-subgraph support
    // >= theta; the converged build is reused directly for the peel.
    BEIndex index;
    std::vector<SupportT> sup_sub;
    bool converged = false;
    while (!converged && !options.deadline.Expired()) {
      // The cascade recount is the PC hot path: both the compressed build
      // and the Lemma 4 support scan run over the pool.
      index = BEIndexBuilder::BuildCompressed(m, adj, assigned, included, pool);
      sup_sub = index.ComputeSupports(pool);
      converged = true;
      if (theta == 0) break;
      for (EdgeId e = 0; e < m; ++e) {
        if (included[e] && !assigned[e] && sup_sub[e] < theta) {
          included[e] = 0;
          phi_bound[e] = std::min<SupportT>(
              phi_bound[e], static_cast<SupportT>(theta - 1));
          converged = false;
        }
      }
    }
    if (!converged) {
      result->timed_out = true;
      break;
    }

    std::uint64_t candidate_unassigned = 0;
    for (EdgeId e = 0; e < m; ++e) {
      candidate_unassigned += included[e] && !assigned[e];
    }
    if (candidate_unassigned == 0) {
      // No edge has phi at or above this theta; move down the ladder.
      result->pc_trace.push_back({theta, 0, 0, 0, round_timer.Seconds()});
      continue;
    }

    const std::uint64_t index_bytes = index.MemoryBytes();
    result->counters.peak_index_bytes =
        std::max(result->counters.peak_index_bytes, index_bytes);

    std::vector<std::uint8_t> frozen(m);
    for (EdgeId e = 0; e < m; ++e) frozen[e] = assigned[e] || !included[e];

    std::uint64_t assigned_now = 0;
    Peeler peeler(std::move(index), std::move(sup_sub), std::move(frozen),
                  &result->counters);
    const bool completed = peeler.Run(
        Peeler::Mode::kBatchBlooms, options.deadline,
        [&](EdgeId e, SupportT level) {
          // Every candidate edge sits in the theta-bitruss, so the peel
          // level provably reaches theta; the guard is defensive only.
          if (level >= theta) {
            result->phi[e] = level;
            assigned[e] = 1;
            ++assigned_now;
          }
        });
    result->pc_trace.push_back({theta, candidate_unassigned, assigned_now,
                                index_bytes, round_timer.Seconds()});
    if (!completed) {
      result->timed_out = true;
      break;
    }
    unassigned -= static_cast<EdgeId>(assigned_now);
  }
  result->counters.peeling_seconds = timer.Seconds();
}

// The pipeline over either graph type; `m` bounds its edge ids.
template <typename GraphT>
BitrussResult DecomposeGraph(const GraphT& g, EdgeId m,
                             const DecomposeOptions& options) {
  BitrussResult result;
  result.phi.assign(m, 0);
  // Allocated before the index, whose copy of the supports it receives:
  // allocated after, it would sit above the index's arrays in the heap
  // and keep the allocator from returning them once the index is freed.
  result.original_support.assign(m, 0);
  if (options.track_per_edge_updates) {
    result.counters.per_edge_updates.assign(m, 0);
  }

  ThreadPool pool(ResolveNumThreads(options.parallel));

  const DecomposeMetrics& metrics = DecomposeMetrics::Get();
  metrics.runs->Inc();

  Timer timer;
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  // BU, BU+ and BU++ peel the full BE-Index, whose blooms already hold
  // every support (Lemma 4), so one wedge enumeration serves both the
  // index and the counts.  BS and PC have no full index and count.  A
  // slot table maintains its supports (a free slot reads 0).
  const bool indexed = options.algorithm == Algorithm::kBU ||
                       options.algorithm == Algorithm::kBUPlus ||
                       options.algorithm == Algorithm::kBUPlusPlus;
  BEIndex index;
  if (indexed) index = BEIndexBuilder::BuildCompressed(m, adj, {}, {}, &pool);
  std::vector<SupportT> sup;
  if constexpr (std::is_same_v<GraphT, DynamicBipartiteGraph>) {
    sup.resize(m);
    for (EdgeId e = 0; e < m; ++e) sup[e] = g.Support(e);
  } else {
    sup = indexed ? index.ComputeSupports(&pool)
                  : CountEdgeSupports(m, adj, &pool);
  }
  result.original_support = sup;
  std::uint64_t support_sum = 0;
  for (const SupportT s : sup) support_sum += s;
  result.total_butterflies = support_sum / 4;  // every butterfly has 4 edges
  result.counters.counting_seconds = timer.Seconds();

  switch (options.algorithm) {
    case Algorithm::kBS: {
      timer.Reset();
      DynamicBipartiteGraph peeled = PeelCopy(g, sup);
      PeelBS(std::move(peeled), std::move(sup), options, &result);
      result.counters.peeling_seconds = timer.Seconds();
      break;
    }
    case Algorithm::kBU:
      RunIndexed(std::move(index), std::move(sup), Peeler::Mode::kSingle,
                 options, &result);
      break;
    case Algorithm::kBUPlus:
      RunIndexed(std::move(index), std::move(sup), Peeler::Mode::kBatchEdges,
                 options, &result);
      break;
    case Algorithm::kBUPlusPlus:
      RunIndexed(std::move(index), std::move(sup), Peeler::Mode::kBatchBlooms,
                 options, &result);
      break;
    case Algorithm::kPC:
      RunPC(m, adj, sup, options, &pool, &result);
      break;
  }
  metrics.counting_seconds->Observe(result.counters.counting_seconds);
  metrics.peeling_seconds->Observe(result.counters.peeling_seconds);
  return result;
}

}  // namespace

BitrussResult Decompose(const BipartiteGraph& g,
                        const DecomposeOptions& options) {
  return DecomposeGraph(g, g.NumEdges(), options);
}

BitrussResult Decompose(const DynamicBipartiteGraph& g,
                        const DecomposeOptions& options) {
  return DecomposeGraph(g, g.NumSlots(), options);
}

}  // namespace bitruss
