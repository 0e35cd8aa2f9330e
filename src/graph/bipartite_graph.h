// Immutable bipartite graph in CSR form.
//
// Vertices use one global id space: upper vertices are [0, NumUpper()),
// lower vertices are [NumUpper(), NumUpper() + NumLower()).  Each undirected
// edge has one EdgeId; both adjacency directions carry it, so per-edge
// arrays (supports, bitruss numbers) are indexed directly.
//
// Edge ids are assigned in lexicographic (upper, lower) order after
// deduplication — a documented invariant that verify.cc and the tests rely
// on to map sub-graph edges back to the parent graph.

#ifndef BITRUSS_GRAPH_BIPARTITE_GRAPH_H_
#define BITRUSS_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace bitruss {

class BipartiteGraph {
 public:
  struct AdjEntry {
    VertexId neighbor;  ///< global vertex id of the other endpoint
    EdgeId edge;
  };

  /// Iteration range over a CSR adjacency slice.
  struct NeighborRange {
    const AdjEntry* first;
    const AdjEntry* last;
    const AdjEntry* begin() const { return first; }
    const AdjEntry* end() const { return last; }
    std::size_t size() const { return static_cast<std::size_t>(last - first); }
  };

  BipartiteGraph() = default;

  /// Builds from (upper index, lower index) pairs with side-local indices
  /// in [0, num_upper) x [0, num_lower).  Duplicate pairs are collapsed;
  /// out-of-range endpoints throw std::invalid_argument.
  BipartiteGraph(VertexId num_upper, VertexId num_lower,
                 std::vector<std::pair<VertexId, VertexId>> edges);

  VertexId NumUpper() const { return num_upper_; }
  VertexId NumLower() const { return num_lower_; }
  VertexId NumVertices() const { return num_upper_ + num_lower_; }
  EdgeId NumEdges() const { return static_cast<EdgeId>(edge_upper_.size()); }

  VertexId Degree(VertexId v) const {
    return static_cast<VertexId>(offsets_[v + 1] - offsets_[v]);
  }

  NeighborRange Neighbors(VertexId v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  /// Endpoints as global vertex ids (EdgeUpper < NumUpper() <= EdgeLower).
  VertexId EdgeUpper(EdgeId e) const { return edge_upper_[e]; }
  VertexId EdgeLower(EdgeId e) const { return edge_lower_[e]; }

  /// Edges as (upper local, lower local) pairs in EdgeId order.
  std::vector<std::pair<VertexId, VertexId>> EdgeList() const;

  std::uint64_t MemoryBytes() const;

 private:
  VertexId num_upper_ = 0;
  VertexId num_lower_ = 0;
  std::vector<std::uint64_t> offsets_;  // size NumVertices() + 1
  std::vector<AdjEntry> adj_;           // size 2 * NumEdges()
  std::vector<VertexId> edge_upper_;    // global upper id per edge
  std::vector<VertexId> edge_lower_;    // global lower id per edge
};

}  // namespace bitruss

#endif  // BITRUSS_GRAPH_BIPARTITE_GRAPH_H_
