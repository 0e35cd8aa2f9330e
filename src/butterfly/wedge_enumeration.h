// Internal: the priority-anchored wedge enumeration shared by butterfly
// counting and BE-Index construction.  One implementation keeps the two in
// lockstep — the Lemma 4 identity (index supports == counted supports)
// holds by construction, not by parallel maintenance.
//
// AdjT is any rank-indexed adjacency: NumVertices(), Neighbors(r) -> range
// of PriorityAdjacency::Entry sorted by ascending rank, and
// FirstBelowPriority(r, bound) -> first entry with rank > bound.
// PriorityAdjacency itself satisfies this; be_index_builder.cc adds a
// filtered variant for BiT-PC candidate subgraphs.

#ifndef BITRUSS_BUTTERFLY_WEDGE_ENUMERATION_H_
#define BITRUSS_BUTTERFLY_WEDGE_ENUMERATION_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "graph/vertex_priority.h"

namespace bitruss::internal {

/// partition_point helper for rank-sorted adjacency slices.
inline const PriorityAdjacency::Entry* FirstRankAbove(
    const PriorityAdjacency::Range& range, VertexId bound) {
  return std::partition_point(
      range.begin(), range.end(),
      [bound](const PriorityAdjacency::Entry& e) { return e.rank <= bound; });
}

/// Zeroed per-endpoint scratch reused across anchors (and, by parallel
/// callers, across chunks of the same thread).  `count` must stay all-zero
/// between anchors; the enumeration restores that invariant itself.
struct BloomScratch {
  std::vector<SupportT> count;
  std::vector<VertexId> touched;

  void Prepare(VertexId n) {
    count.assign(n, 0);
    touched.clear();
    touched.reserve(1024);
  }
};

/// Calls on_wedge(v, w) with the adjacency entries of v and w for every
/// wedge ur-v-w anchored at rank ur: v and w both at strictly lower
/// priority than ur, v in ur's list and w in v's, in adjacency order.
/// The one definition of the wedges the counting and the BE-Index share.
template <typename AdjT, typename WedgeFn>
void ForEachAnchorWedge(const AdjT& a, VertexId ur, WedgeFn&& on_wedge) {
  const auto nu = a.Neighbors(ur);
  for (const auto* v = a.FirstBelowPriority(ur, ur); v != nu.end(); ++v) {
    const auto wlast = a.Neighbors(v->rank).end();
    for (const auto* w = a.FirstBelowPriority(v->rank, ur); w != wlast; ++w) {
      on_wedge(*v, *w);
    }
  }
}

/// Prefix sums of the anchors' wedge-walk work: prefix[r] is the work of
/// the anchors of rank below r, for r in [0, a.NumVertices()].  An
/// anchor's work is one plus the summed degree of its lower-priority
/// neighbours: the lists its walk reads, so also a bound on its wedges.
template <typename AdjT>
std::vector<std::uint64_t> AnchorWorkPrefix(const AdjT& a) {
  const VertexId n = a.NumVertices();
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (VertexId ur = 0; ur < n; ++ur) {
    std::uint64_t work = 1;
    const auto nu = a.Neighbors(ur);
    for (const auto* v = a.FirstBelowPriority(ur, ur); v != nu.end(); ++v) {
      work += a.Neighbors(v->rank).size();
    }
    prefix[ur + 1] = prefix[ur] + work;
  }
  return prefix;
}

/// Bounds of `num_chunks` contiguous anchor ranges of about equal work,
/// bounds[c] to bounds[c + 1], from 0 to n = prefix.size() - 1, given
/// AnchorWorkPrefix's sums.  Under the degree priority nearly all the work
/// sits at the lowest ranks, so equal vertex counts would leave one chunk
/// with almost the whole walk.  Ranges may be empty.
inline std::vector<VertexId> AnchorChunkBounds(
    const std::vector<std::uint64_t>& prefix, unsigned num_chunks) {
  const VertexId n = static_cast<VertexId>(prefix.size() - 1);
  const std::uint64_t total = prefix[n];
  std::vector<VertexId> bounds(num_chunks + 1, n);
  bounds[0] = 0;
  for (unsigned c = 1; c < num_chunks; ++c) {
    // floor(total * c / num_chunks), without overflowing the product.
    const std::uint64_t target = total / num_chunks * c +
                                 total % num_chunks * c / num_chunks;
    bounds[c] = static_cast<VertexId>(
        std::lower_bound(prefix.begin(), prefix.end(), target) -
        prefix.begin());
  }
  return bounds;
}

// Per anchor u: pass 1 counts wedges u-v-w per endpoint w (all of v, w at
// strictly lower priority than u); then `on_pair(w_rank, c)` fires once per
// endpoint with c >= 2 wedges; with kNeedWedges, `on_wedge(w_rank, c,
// edge(u,v), edge(v,w))` fires once per wedge of such a pair.
//
// ForEachBloomRange restricts the ANCHOR loop to [anchor_begin, anchor_end)
// — wedges still reach down to arbitrary ranks, so partitioning anchors
// over threads partitions the wedge set exactly (every wedge has one
// anchor).  Scratch is caller-owned so parallel chunks of one thread reuse
// a single allocation; it must arrive prepared for a.NumVertices().
template <bool kNeedWedges, typename AdjT, typename PairFn, typename WedgeFn>
void ForEachBloomRange(const AdjT& a, VertexId anchor_begin,
                       VertexId anchor_end, BloomScratch& scratch,
                       PairFn&& on_pair, WedgeFn&& on_wedge) {
  std::vector<SupportT>& count = scratch.count;
  std::vector<VertexId>& touched = scratch.touched;

  for (VertexId ur = anchor_begin; ur < anchor_end; ++ur) {
    ForEachAnchorWedge(a, ur, [&](const auto&, const auto& w) {
      if (count[w.rank]++ == 0) touched.push_back(w.rank);
    });
    for (const VertexId wr : touched) {
      if (count[wr] >= 2) on_pair(wr, count[wr]);
    }
    if constexpr (kNeedWedges) {
      ForEachAnchorWedge(a, ur, [&](const auto& v, const auto& w) {
        if (count[w.rank] >= 2) {
          on_wedge(w.rank, count[w.rank], v.edge, w.edge);
        }
      });
    }
    for (const VertexId wr : touched) count[wr] = 0;
    touched.clear();
  }
}

// Local analogue of ForEachBloomRange for dynamic updates: enumerates every
// butterfly containing the single edge (u, v) by walking only the wedges
// through its endpoints, instead of re-anchoring the whole graph.  A
// butterfly {u, w, v, x} containing (u, v) is reached exactly once — via
// its unique wedge u-x-w anchored at the lower-degree endpoint — and the
// callback receives the butterfly's three OTHER edges:
// `on_butterfly(edge(s,x), edge(x,w), edge(w,t))` with {s,t} = {u,v}.
//
// Works both pre-insertion ((u, v) not yet in the adjacency) and
// pre-deletion ((u, v) still present; its own entries are skipped).
//
// AdjT is any mutable-graph adjacency: NumVertices(), Degree(v) and
// Neighbors(v) -> range of {neighbor, edge} entries.  The closing edge
// (w, t) is read from `mark`, caller-owned scratch indexed by vertex:
// mark[w] holds edge(w, t) for every neighbour w of t during the walk and
// kInvalidEdge everywhere else before and after it.  The mark grows to
// a.NumVertices() on first use, so an empty vector is a valid start.  Cost
// is O(d(t)) to set and clear the mark plus O(sum_{x in N(s)} d(x)) array
// reads, with s the smaller endpoint.
template <typename AdjT, typename ButterflyFn>
void ForEachButterflyThroughEdge(const AdjT& a, VertexId u, VertexId v,
                                 std::vector<EdgeId>& mark,
                                 ButterflyFn&& on_butterfly) {
  VertexId s = u, t = v;
  if (a.Degree(t) < a.Degree(s)) std::swap(s, t);
  if (mark.size() < a.NumVertices()) {
    mark.resize(a.NumVertices(), kInvalidEdge);
  }
  for (const auto& y : a.Neighbors(t)) mark[y.neighbor] = y.edge;
  for (const auto& x : a.Neighbors(s)) {
    if (x.neighbor == t) continue;
    for (const auto& w : a.Neighbors(x.neighbor)) {
      if (w.neighbor == s) continue;
      const EdgeId closing = mark[w.neighbor];
      if (closing != kInvalidEdge) on_butterfly(x.edge, w.edge, closing);
    }
  }
  for (const auto& y : a.Neighbors(t)) mark[y.neighbor] = kInvalidEdge;
}

// Delta-enumeration helper shared by the incremental-bitruss repair paths:
// one ForEachButterflyThroughEdge walk that aggregates, per butterfly
// through (u, v), the minimum of `label` over its three OTHER edges.
// Weights are clamped to `cap` (a butterfly whose partners all carry labels
// above the caller's band contributes exactly like one at the band edge, so
// clamping keeps the weight histogram small without changing any h-index
// at or below cap).  When `partners` is non-null the three partner edge
// ids of every butterfly are appended to it, duplicates included — callers
// needing a distinct set dedupe with their own stamps.  `mark` is the
// walk's closing-edge scratch (see above).  Returns the number of
// butterflies enumerated.
//
// LabelFn is EdgeId -> SupportT (e.g. maintained supports for an upper
// bound, or current phi labels for the fixpoint repair).
template <typename AdjT, typename LabelFn>
std::uint64_t CollectButterflyWeights(const AdjT& a, VertexId u, VertexId v,
                                      std::vector<EdgeId>& mark,
                                      LabelFn&& label, SupportT cap,
                                      std::vector<SupportT>* weights,
                                      std::vector<EdgeId>* partners = nullptr) {
  std::uint64_t found = 0;
  ForEachButterflyThroughEdge(
      a, u, v, mark, [&](EdgeId e1, EdgeId e2, EdgeId e3) {
        ++found;
        const SupportT w = std::min({label(e1), label(e2), label(e3), cap});
        weights->push_back(w);
        if (partners != nullptr) {
          partners->push_back(e1);
          partners->push_back(e2);
          partners->push_back(e3);
        }
      });
  return found;
}

}  // namespace bitruss::internal

#endif  // BITRUSS_BUTTERFLY_WEDGE_ENUMERATION_H_
