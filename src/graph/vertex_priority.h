// Vertex priority order (Definition 7 of Wang et al., ICDE'20) and the
// priority-sorted adjacency used by butterfly counting and the BE-Index
// builder.
//
// Ranking vertices by (degree, id) bounds the number of priority-obeyed
// wedges — and with it counting time, index build time, and index size —
// by O(sum_{(u,v) in E} min{d(u), d(v)}).  Any total order is correct
// (Lemma 3 holds regardless); kIdOnly exists for the ablation bench.
//
// Neither structure costs more than the bound assumes: the order is a
// counting sort by degree, O(n), and the adjacency is one scatter in rank
// order, O(n + m) with no per-list sort.
//
// Both are built from any graph exposing NumVertices(), Degree(v) and
// Neighbors(v) -> range of {neighbor, edge} entries: the CSR
// BipartiteGraph, or DynamicBipartiteGraph's slot table, whose edge ids
// are slot ids (free slots appear in no adjacency entry).

#ifndef BITRUSS_GRAPH_VERTEX_PRIORITY_H_
#define BITRUSS_GRAPH_VERTEX_PRIORITY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace bitruss {

enum class PriorityRule {
  kDegreeThenId,  ///< higher degree first, ties broken by higher id (paper)
  kIdOnly,        ///< higher id first (ablation baseline)
};

/// A total order on vertices.  Rank 0 is the HIGHEST priority vertex.
class VertexPriority {
 public:
  template <typename GraphT>
  static VertexPriority Compute(const GraphT& g,
                                PriorityRule rule = PriorityRule::kDegreeThenId);

  VertexId NumVertices() const { return static_cast<VertexId>(rank_.size()); }
  /// Rank of vertex v (0 = highest priority).
  VertexId Rank(VertexId v) const { return rank_[v]; }
  /// Vertex holding rank r.
  VertexId VertexAtRank(VertexId r) const { return order_[r]; }

 private:
  std::vector<VertexId> rank_;
  std::vector<VertexId> order_;
};

/// Rank-indexed adjacency: for every vertex (addressed by its rank), the
/// neighbor list stores (neighbor rank, edge id) sorted by ascending rank,
/// i.e. descending priority.  Wedge enumerations binary-search the first
/// neighbor below a given priority and scan the suffix.
class PriorityAdjacency {
 public:
  struct Entry {
    VertexId rank;  ///< neighbor's rank
    EdgeId edge;
  };

  struct Range {
    const Entry* first;
    const Entry* last;
    const Entry* begin() const { return first; }
    const Entry* end() const { return last; }
    std::size_t size() const { return static_cast<std::size_t>(last - first); }
  };

  template <typename GraphT>
  PriorityAdjacency(const GraphT& g, const VertexPriority& priority);

  VertexId NumVertices() const {
    return static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Neighbors of the vertex at rank r, ascending by neighbor rank.
  Range Neighbors(VertexId r) const {
    return {entries_.data() + offsets_[r], entries_.data() + offsets_[r + 1]};
  }

  /// First neighbor of rank-r's list whose rank is strictly greater than
  /// `bound` (all ranks are distinct, so >= bound+1 equals > bound).
  const Entry* FirstBelowPriority(VertexId r, VertexId bound) const;

  std::uint64_t MemoryBytes() const;

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<Entry> entries_;
};

template <typename GraphT>
VertexPriority VertexPriority::Compute(const GraphT& g, PriorityRule rule) {
  const VertexId n = g.NumVertices();
  VertexPriority p;
  p.order_.resize(n);
  p.rank_.assign(n, 0);
  if (rule == PriorityRule::kDegreeThenId) {
    // Counting sort, highest degree first.  A degree is below n, so rank_
    // holds the buckets until it holds ranks: after the prefix pass,
    // first[d] is the number of vertices of degree above d, where degree
    // d's bucket starts.  Filling each bucket from the highest id down
    // breaks degree ties by higher id first.
    std::vector<VertexId>& first = p.rank_;
    for (VertexId v = 0; v < n; ++v) ++first[g.Degree(v)];
    VertexId above = 0;
    for (VertexId d = n; d-- > 0;) {
      const VertexId count = first[d];
      first[d] = above;
      above += count;
    }
    for (VertexId v = n; v-- > 0;) p.order_[first[g.Degree(v)]++] = v;
  } else {
    for (VertexId r = 0; r < n; ++r) p.order_[r] = n - 1 - r;
  }
  for (VertexId r = 0; r < n; ++r) p.rank_[p.order_[r]] = r;
  return p;
}

// Scattering each vertex into its neighbours' lists in rank order appends
// every list's entries by ascending rank, so no list needs a sort.
template <typename GraphT>
PriorityAdjacency::PriorityAdjacency(const GraphT& g,
                                     const VertexPriority& priority) {
  const VertexId n = g.NumVertices();
  offsets_.assign(n + 1, 0);
  for (VertexId r = 0; r < n; ++r) {
    offsets_[r + 1] = offsets_[r] + g.Degree(priority.VertexAtRank(r));
  }
  entries_.resize(offsets_[n]);
  // offsets_[s] is rank s's fill cursor, so it ends at rank s + 1's start;
  // shifting the array one place right restores the starts.
  for (VertexId r = 0; r < n; ++r) {
    for (const auto& [neighbor, edge] : g.Neighbors(priority.VertexAtRank(r))) {
      entries_[offsets_[priority.Rank(neighbor)]++] = {r, edge};
    }
  }
  for (VertexId s = n; s > 0; --s) offsets_[s] = offsets_[s - 1];
  offsets_[0] = 0;
}

}  // namespace bitruss

#endif  // BITRUSS_GRAPH_VERTEX_PRIORITY_H_
