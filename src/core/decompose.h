// Bitruss decomposition: Decompose(g, options) with the five algorithm
// variants of Wang et al. (ICDE'20).
//
//   kBS         baseline: peel with direct butterfly re-enumeration on the
//               shrinking graph (no index), deleting each peeled edge
//               from a DynamicBipartiteGraph copy — Section III.
//   kBU         BE-Index peeling, one edge at a time — Section IV.
//   kBUPlus     + batch edge processing — Section V-A.
//   kBUPlusPlus + batch bloom processing — Section V-B.
//   kPC         progressive compression: iterate a decreasing support
//               threshold theta; each round rebuilds a compressed BE-Index
//               over the candidate subgraph {e : sup_G(e) >= theta} with
//               already-assigned edges folded away, peels it, and fixes
//               phi for edges whose peel level reaches theta — Section V-C.
//               `tau` sets the fraction of edges targeted per round
//               (tau = 1 degenerates to a single full round).
//
// The counting phase yields BitrussResult::original_support.  kBU, kBUPlus
// and kBUPlusPlus build the full BE-Index there and read every support off
// its blooms (Lemma 4), so the phase is one wedge enumeration plus a scan
// and the peel takes the built index.  kBS and kPC run the butterfly
// counting pass (CountEdgeSupports) instead; kPC builds its compressed
// indexes round by round.  The slot-table overload below reads every
// support off the slot table, which maintains them.
//
// Two overloads run the same pipeline.  The CSR one decomposes a
// BipartiteGraph over its edge ids [0, NumEdges()).  The slot-table one
// decomposes a DynamicBipartiteGraph in place, with no CSR copy: its
// arrays (phi, original_support, per_edge_updates) are sized by the
// edge-id bound NumSlots(), not by the live NumEdges(), and are indexed by
// slot id.  A free slot is in no adjacency entry, so it has no wedge, is
// peeled at level 0 and reads 0 in every array.  Phi is unique, so both
// overloads agree edge for edge on a graph and its
// DynamicBipartiteGraph::Snapshot().
//
// Each phase has one record per audience.  For callers and benches,
// BitrussResult::counters carries the counting/peeling split (Fig. 5) and
// BitrussResult::pc_trace one row per BiT-PC theta round (Fig. 8).  For
// operators, the registry families
// bitruss_{butterfly_count,beindex_build,core_counting,core_peeling}_seconds
// and bitruss_core_pc_rounds_total aggregate the same phases per process.

#ifndef BITRUSS_CORE_DECOMPOSE_H_
#define BITRUSS_CORE_DECOMPOSE_H_

#include "core/bitruss_result.h"
#include "graph/bipartite_graph.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace bitruss {

class DynamicBipartiteGraph;

enum class Algorithm {
  kBS,
  kBU,
  kBUPlus,
  kBUPlusPlus,
  kPC,
};

struct DecomposeOptions {
  Algorithm algorithm = Algorithm::kBUPlusPlus;
  /// BiT-PC: target fraction of edges added to the candidate per iteration.
  double tau = 0.02;
  /// Abort knob; expired runs return partial phi with timed_out set.
  Deadline deadline;
  /// Fill UpdateCounters::per_edge_updates (costs one u64 per edge).
  bool track_per_edge_updates = false;
  /// Thread count for support counting, BE-Index construction and BiT-PC's
  /// cascade recount passes; the peel itself stays sequential.  This is
  /// the library's one parallel decomposition.  Results are bit-identical
  /// at every thread count.
  ParallelOptions parallel;
};

BitrussResult Decompose(const BipartiteGraph& g,
                        const DecomposeOptions& options = {});
BitrussResult Decompose(const DynamicBipartiteGraph& g,
                        const DecomposeOptions& options = {});

}  // namespace bitruss

#endif  // BITRUSS_CORE_DECOMPOSE_H_
