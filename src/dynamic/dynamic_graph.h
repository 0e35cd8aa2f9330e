// Mutable bipartite graph with incrementally maintained butterfly supports.
//
// `DynamicBipartiteGraph` wraps a seed `BipartiteGraph` in per-vertex
// neighbor vectors, so edges can be inserted and deleted between
// decomposition runs without recounting the whole graph: each update
// enumerates only the butterflies through the touched edge
// (internal::ForEachButterflyThroughEdge) and applies the ±1 support delta
// to the O(affected) edges.  The adjacency lists are the only edge index:
// FindEdge scans the shorter endpoint list, O(min(d(a), d(b))), which never
// exceeds the butterfly walk an insert (or a delete of an edge in any
// butterfly) runs right after its lookup.  Aggregate counters — live edge
// count and exact total butterflies — are maintained across the stream.
//
// Edge ids are stable SLOT ids: the seed's edges keep their CSR EdgeIds,
// inserts reuse freed slots (free list) before growing, and a deleted
// slot's id stays invalid until reused.  The graph exposes the same
// NumVertices() / Degree() / Neighbors() surface as BipartiteGraph, so
// `Decompose(const DynamicBipartiteGraph&)` runs the whole pipeline over
// the slot table directly, indexed by slot id.  `Snapshot()` compacts the
// live edges back to an immutable CSR `BipartiteGraph` (whose ids follow
// the lexicographic invariant documented in graph/bipartite_graph.h)
// together with the snapshot-id -> slot-id mapping; it is the oracle and
// bench path, off the writer's (tools/lint.py rule 7).
//
// Vertex ids use the same one global space as BipartiteGraph: upper in
// [0, NumUpper()), lower in [NumUpper(), NumUpper() + NumLower()).  The
// vertex sets are fixed at seeding; mutation APIs take side-local indices
// like the BipartiteGraph constructor and return Status/StatusOr
// (util/status.h) instead of throwing — duplicate inserts and unknown
// deletes are routine stream events, not contract violations.

#ifndef BITRUSS_DYNAMIC_DYNAMIC_GRAPH_H_
#define BITRUSS_DYNAMIC_DYNAMIC_GRAPH_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace bitruss {

namespace internal {

/// Support deltas are applied one butterfly at a time, so the only overflow
/// hazards are ±1 steps at the SupportT boundaries.  Stepping past a
/// boundary is a maintained-invariant violation (insert-heavy synthetic
/// streams can in principle push a hub edge's support to 2^32): debug
/// builds assert, release builds saturate so the graph stays usable.
inline SupportT SaturatingIncrement(SupportT s) {
  assert(s != std::numeric_limits<SupportT>::max() &&
         "butterfly support overflow");
  return s == std::numeric_limits<SupportT>::max() ? s : s + 1;
}

inline SupportT SaturatingDecrement(SupportT s) {
  assert(s != 0 && "butterfly support underflow");
  return s == 0 ? 0 : s - 1;
}

/// Clamp for the 64-bit butterfly tally of a freshly inserted edge.
inline SupportT SaturatingSupportCast(std::uint64_t count) {
  assert(count <= std::numeric_limits<SupportT>::max() &&
         "butterfly support overflow");
  return count > std::numeric_limits<SupportT>::max()
             ? std::numeric_limits<SupportT>::max()
             : static_cast<SupportT>(count);
}

}  // namespace internal

/// Compaction of a DynamicBipartiteGraph back to immutable CSR.
struct GraphSnapshot {
  BipartiteGraph graph;
  /// Snapshot EdgeId -> dynamic slot id (size graph.NumEdges()).
  std::vector<EdgeId> slot_of_edge;
};

/// What one InsertEdge/DeleteEdge did to the maintained supports, for
/// callers (incremental_bitruss.h) that repair derived state from the same
/// butterfly deltas instead of recomputing it.  The deltas are still
/// applied to the maintained supports; this is a report, not a deferral.
struct UpdateDelta {
  /// Pre-existing edges whose support moved, as one triplet per butterfly
  /// gained (insert) or lost (delete): entries [3i, 3i + 3) are the three
  /// other edges of the i-th butterfly through the updated edge, so
  /// touched.size() == 3 * butterflies.  An edge in several affected
  /// butterflies appears several times; callers dedupe.  The inserted /
  /// deleted edge itself is not listed.
  std::vector<EdgeId> touched;
  /// Butterflies gained (insert) or lost (delete) by the update.
  std::uint64_t butterflies = 0;

  void Clear() {
    touched.clear();
    butterflies = 0;
  }
};

/// Full serializable image of a DynamicBipartiteGraph: the slot table, the
/// free-slot stack IN PUSH ORDER, and the aggregate counters.  Produced by
/// ExportState(), consumed by FromState(); the persistence layer stores it
/// verbatim.  Preserving free-slot ORDER (not just membership) matters:
/// the stack decides which slot the next insert reuses, so a restored
/// graph assigns the same slot ids the original process would have —
/// recovery stays slot-for-slot comparable with an oracle replay.
struct DynamicGraphState {
  VertexId num_upper = 0;
  VertexId num_lower = 0;
  std::uint64_t num_butterflies = 0;
  /// Parallel per-slot arrays; upper[s] == kInvalidVertex marks slot s
  /// free (lower is then kInvalidVertex and support 0).  Vertex ids are
  /// GLOBAL (lower offset by num_upper), exactly as the slot table holds
  /// them.
  std::vector<VertexId> upper;
  std::vector<VertexId> lower;
  std::vector<SupportT> support;
  /// Free-slot stack, bottom first; lists exactly the free slots.
  std::vector<EdgeId> free_slots;
};

class DynamicBipartiteGraph {
 public:
  struct Entry {
    VertexId neighbor;  ///< global vertex id of the other endpoint
    EdgeId edge;        ///< slot id
  };

  /// Seeds from a static graph: copies its adjacency, keeps its EdgeIds as
  /// the initial slot ids, and runs one exact counting pass for the
  /// starting supports.
  explicit DynamicBipartiteGraph(const BipartiteGraph& seed);
  /// The same, with the starting supports supplied by the caller: `sup`
  /// (indexed by seed EdgeId) must be the seed's exact butterfly supports,
  /// e.g. a Decompose() result's original_support.
  DynamicBipartiteGraph(const BipartiteGraph& seed,
                        const std::vector<SupportT>& sup);

  VertexId NumUpper() const { return num_upper_; }
  VertexId NumLower() const { return num_lower_; }
  VertexId NumVertices() const { return num_upper_ + num_lower_; }
  /// Live edges (seed edges + inserts - deletes).
  EdgeId NumEdges() const { return num_live_; }
  /// Upper bound over slot ids; slots in [0, NumSlots()) may be free.
  EdgeId NumSlots() const { return static_cast<EdgeId>(slots_.size()); }
  /// Exact butterfly count, maintained across every update.
  std::uint64_t NumButterflies() const { return num_butterflies_; }

  /// Inserts the edge (upper_local, lower_local), updating the supports of
  /// every edge that gains a butterfly.  Returns the assigned slot id;
  /// kInvalidArgument for out-of-range endpoints, kAlreadyExists if the
  /// edge is present.  When `delta` is non-null it is cleared and filled
  /// with the update's support deltas (untouched on failure).
  [[nodiscard]] StatusOr<EdgeId> InsertEdge(VertexId upper_local,
                                            VertexId lower_local,
                              UpdateDelta* delta = nullptr);

  /// Deletes the edge in slot `e`, updating the supports of every edge
  /// that loses a butterfly.  kNotFound if `e` is out of range or free.
  /// When `delta` is non-null it is cleared and filled with the update's
  /// support deltas (untouched on failure).
  [[nodiscard]] Status DeleteEdge(EdgeId e, UpdateDelta* delta = nullptr);

  bool IsLive(EdgeId e) const {
    return e < slots_.size() && slots_[e].upper != kInvalidVertex;
  }
  /// Endpoints as global vertex ids; requires IsLive(e).
  VertexId EdgeUpper(EdgeId e) const { return slots_[e].upper; }
  VertexId EdgeLower(EdgeId e) const { return slots_[e].lower; }
  /// Maintained butterfly support of a live edge.
  SupportT Support(EdgeId e) const { return slots_[e].support; }

  VertexId Degree(VertexId v) const {
    return static_cast<VertexId>(adj_[v].size());
  }
  const std::vector<Entry>& Neighbors(VertexId v) const { return adj_[v]; }

  /// Slot id of the edge between global vertices a and b (either order),
  /// or kInvalidEdge if absent or either id is out of range.  Scans the
  /// adjacency list of the endpoint with fewer entries.
  EdgeId FindEdge(VertexId a, VertexId b) const;

  /// Compacts the live edges to CSR; see GraphSnapshot.  For oracles and
  /// benches: the writer decomposes the slot table itself.
  GraphSnapshot Snapshot() const;

  /// Serializable image of the current state; see DynamicGraphState.
  DynamicGraphState ExportState() const;

  /// Rebuilds a graph from an exported image, revalidating every internal
  /// invariant (endpoint ranges, duplicate edges, free-stack consistency,
  /// support sum == 4 * butterflies).  kDataLoss on any violation: the
  /// caller is recovery, where a malformed image IS corrupt persisted
  /// state.  The rebuilt adjacency enumerates neighbors in slot order
  /// (not the original insertion order), which is behaviorally equivalent
  /// — supports and phi do not depend on enumeration order.
  [[nodiscard]] static StatusOr<DynamicBipartiteGraph> FromState(
      const DynamicGraphState& state);

  /// Compacts the slot table so NumSlots() == NumEdges() again: live slots
  /// are renumbered downward (relative order preserved), freed slots and
  /// their vector capacity are released.  Returns the old-slot -> new-slot
  /// mapping (kInvalidEdge for slots that were free).  Every EdgeId handed
  /// out before the call is invalidated; callers owning slot-indexed state
  /// must remap it through the returned vector.  Churn alone does not grow
  /// the table: InsertEdge reuses freed slots first, so NumSlots() stays at
  /// the high-water mark of live edges.  Compaction returns the slots freed
  /// since that mark, which slot-indexed arrays (phi, the decomposition's
  /// NumSlots()-sized scratch) would otherwise keep paying for.
  std::vector<EdgeId> CompactSlots();

  std::uint64_t MemoryBytes() const;

 private:
  DynamicBipartiteGraph() = default;  // FromState fills everything in

  struct EdgeSlot {
    VertexId upper = kInvalidVertex;  ///< kInvalidVertex marks a free slot
    VertexId lower = kInvalidVertex;
    std::uint32_t upper_pos = 0;  ///< index of this edge in adj_[upper]
    std::uint32_t lower_pos = 0;  ///< index of this edge in adj_[lower]
    SupportT support = 0;
  };

  /// Moves the support of every other edge of each butterfly through
  /// (u, v) one step up (`gained`) or down, reporting them in `delta`;
  /// returns the butterfly count.
  std::uint64_t ShiftPartnerSupports(VertexId u, VertexId v, bool gained,
                                     UpdateDelta* delta);
  /// Fills slot e with the edge (u, v) and appends its adjacency entries.
  void Link(EdgeId e, VertexId u, VertexId v, SupportT support);
  /// Swap-pop removal of adj_[v][pos], fixing the moved entry's slot.
  void RemoveAdjEntry(VertexId v, std::uint32_t pos);

  VertexId num_upper_ = 0;
  VertexId num_lower_ = 0;
  EdgeId num_live_ = 0;
  std::uint64_t num_butterflies_ = 0;
  std::vector<std::vector<Entry>> adj_;  // size NumVertices()
  std::vector<EdgeSlot> slots_;
  std::vector<EdgeId> free_slots_;
  /// ShiftPartnerSupports' closing-edge mark; all kInvalidEdge between
  /// updates (see internal::ForEachButterflyThroughEdge).
  std::vector<EdgeId> closing_mark_;
};

}  // namespace bitruss

#endif  // BITRUSS_DYNAMIC_DYNAMIC_GRAPH_H_
