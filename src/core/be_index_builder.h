// The Bloom-Edge Index (BE-Index, Section IV of Wang et al., ICDE'20).
//
// A bloom is a priority-anchored (2, k)-biclique: the set of wedges charged
// to one (anchor, endpoint) vertex pair by the BFC-VP enumeration.  Every
// butterfly consists of exactly two wedges of exactly one bloom, so with
// k(B) = number of wedges alive in bloom B:
//
//   sup(e) = sum over blooms B containing e of (k(B) - 1)        (Lemma 4)
//
// and removing an edge e updates, per bloom containing e, the twin edge in
// bulk (-= k(B)-1) and every other wedge edge by 1 — O(sup(e)) total work
// (Lemma 5).
//
// Layout.  The index is bloom-major: each bloom owns a contiguous run of
// slots, [bloom_offsets[b], bloom_offsets[b+1]), whose first bloom_live[b]
// slots are its live wedges.  slot_edges holds a wedge's two edges (e1,
// e2) in its slot, so the peel walks a bloom's wedge pairs in sequence.
// Blooms are numbered in the order the enumeration first meets their
// endpoint (one whose wedges all fold into a compressed base gets none),
// and each run keeps its wedges in enumeration order.  A static per-edge
// CSR (edge_offsets, edge_links) gives each edge one {bloom, twin} link
// per wedge containing it, by ascending bloom (an edge lies in at most one
// wedge of a bloom).  Wedges have no ids: a wedge is alive while neither
// edge is removed, so the peel reads liveness off its own per-edge state
// and keeps each live prefix itself (peeling_state.h).  24 bytes per
// wedge: one 8-byte slot pair and two 8-byte links.
//
// BuildCompressed implements BiT-PC's compressed index: edges outside the
// candidate subgraph are excluded entirely, and wedges whose two edges both
// already have their bitruss number assigned are folded into a per-bloom
// base count (they still contribute to k(B) but are never stored, visited,
// or updated).

#ifndef BITRUSS_CORE_BE_INDEX_BUILDER_H_
#define BITRUSS_CORE_BE_INDEX_BUILDER_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/vertex_priority.h"
#include "util/thread_pool.h"

namespace bitruss {

struct BEIndex {
  EdgeId num_edges = 0;

  /// A wedge's two edges: e1 = (anchor, mid), e2 = (mid, endpoint).
  struct WedgeEdges {
    EdgeId e1;
    EdgeId e2;
    bool operator==(const WedgeEdges& o) const {
      return e1 == o.e1 && e2 == o.e2;
    }
  };

  /// One wedge of an edge: its bloom and the wedge's other edge.
  struct Link {
    BloomId bloom;
    EdgeId twin;
    bool operator==(const Link& o) const {
      return bloom == o.bloom && twin == o.twin;
    }
  };

  // Static per-edge CSR of links (never mutated during peeling).
  // 64-bit: it holds two entries per wedge, up to 2^33.
  std::vector<std::uint64_t> edge_offsets;  ///< size num_edges + 1
  std::vector<Link> edge_links;

  // Per-bloom wedge slots; [bloom_offsets[b], bloom_offsets[b]+bloom_live[b])
  // is the live prefix, which the peel keeps.
  // 32-bit: one slot per wedge, and the build caps wedges at 2^32.
  std::vector<std::uint32_t> bloom_offsets;  ///< size NumBlooms() + 1
  std::vector<WedgeEdges> slot_edges;    ///< each slot's wedge edges
  std::vector<SupportT> bloom_live;
  std::vector<SupportT> bloom_base;  ///< compressed (both-assigned) wedges

  BloomId NumBlooms() const {
    return static_cast<BloomId>(bloom_live.size());
  }

  /// Current k(B): live stored wedges plus the compressed base.
  SupportT BloomK(BloomId b) const { return bloom_base[b] + bloom_live[b]; }

  /// sup(e) = sum of (k(B) - 1) over the links of e (Lemma 4), for an
  /// index no peel has touched.  Edges without wedges (or excluded from a
  /// compressed index) read 0.  Runs over edge ranges of `pool` (each
  /// edge is an independent read), or inline without one; bit-identical
  /// at every thread count.
  std::vector<SupportT> ComputeSupports(ThreadPool* pool = nullptr) const;

  std::uint64_t MemoryBytes() const;
};

class BEIndexBuilder {
 public:
  /// Full BE-Index over every edge of g; the same as BuildCompressed with
  /// nothing assigned and every edge included.
  static BEIndex Build(const BipartiteGraph& g, const PriorityAdjacency& adj,
                       ThreadPool* pool = nullptr);

  /// Index over the edge ids [0, num_edges) of the graph `adj` was built
  /// from (NumEdges() for a CSR graph, NumSlots() for a
  /// DynamicBipartiteGraph), restricted to the subgraph
  /// {e : included[e] != 0} and folding wedges whose two edges are both
  /// `assigned` into the bloom base counts; wedges with an excluded edge
  /// are dropped entirely.  Either vector may be empty, meaning "nothing
  /// assigned" and "all edges".  The anchors are split into chunks of
  /// about equal wedge work run over `pool` (one inline chunk without
  /// one or at one thread); each chunk places its
  /// wedges in its own contiguous run of slots, and the runs are
  /// concatenated in anchor order, so the result is byte-identical at
  /// every thread count.
  static BEIndex BuildCompressed(EdgeId num_edges,
                                 const PriorityAdjacency& adj,
                                 const std::vector<std::uint8_t>& assigned,
                                 const std::vector<std::uint8_t>& included,
                                 ThreadPool* pool = nullptr);
};

}  // namespace bitruss

#endif  // BITRUSS_CORE_BE_INDEX_BUILDER_H_
