// Exact butterfly counting (BFC-VP style, Wang et al. VLDB'19 / ICDE'20
// Section IV-A).
//
// A butterfly is a (2,2)-biclique {u, w, x, y}.  Enumeration anchors every
// wedge u-v-w at its unique highest-priority vertex: for each anchor u, for
// each neighbor v with p(v) < p(u), for each w in N(v) with p(w) < p(u),
// the wedge (u, v, w) is charged to the pair (u, w).  A pair with c wedges
// contributes C(c, 2) butterflies, each counted exactly once globally (the
// anchor is the butterfly's top-priority vertex), and each wedge edge gains
// support c - 1 from the pair.  Total work is
// O(sum_{(u,v) in E} min{d(u), d(v)}) under the degree priority.
//
// The count partitions the ANCHOR vertices into chunks run over a
// ThreadPool (a 1-thread pool, made inline when the caller passes none,
// runs them in order on the calling thread): every wedge has exactly one
// anchor, so anchor chunks partition the wedge set, each thread
// accumulates supports into a private array, and the per-edge merge sums
// thread arrays — integer sums, so the output is bit-identical at every
// thread count (no atomics anywhere on the hot path).

#ifndef BITRUSS_BUTTERFLY_BUTTERFLY_COUNTING_H_
#define BITRUSS_BUTTERFLY_BUTTERFLY_COUNTING_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/vertex_priority.h"
#include "util/thread_pool.h"

namespace bitruss {

/// Per-edge butterfly support sup(e) for every edge id in [0, num_edges)
/// of the graph `adj` was built from: NumEdges() for a CSR graph,
/// NumSlots() for a DynamicBipartiteGraph (free slots read 0).  The
/// anchors are partitioned over `pool`, or counted inline without one.
std::vector<SupportT> CountEdgeSupports(EdgeId num_edges,
                                        const PriorityAdjacency& adj,
                                        ThreadPool* pool = nullptr);

/// Convenience overload computing the default (degree, id) priority.
std::vector<SupportT> CountEdgeSupports(const BipartiteGraph& g);

/// Total number of butterflies in the graph `adj` was built from.
std::uint64_t CountTotalButterflies(const PriorityAdjacency& adj);
std::uint64_t CountTotalButterflies(const BipartiteGraph& g);

}  // namespace bitruss

#endif  // BITRUSS_BUTTERFLY_BUTTERFLY_COUNTING_H_
