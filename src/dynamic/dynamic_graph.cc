#include "dynamic/dynamic_graph.h"

#include <cassert>
#include <utility>

#include "butterfly/butterfly_counting.h"
#include "butterfly/wedge_enumeration.h"

namespace bitruss {

DynamicBipartiteGraph::DynamicBipartiteGraph(const BipartiteGraph& seed)
    : DynamicBipartiteGraph(seed, CountEdgeSupports(seed)) {}

DynamicBipartiteGraph::DynamicBipartiteGraph(const BipartiteGraph& seed,
                                             const std::vector<SupportT>& sup)
    : num_upper_(seed.NumUpper()),
      num_lower_(seed.NumLower()),
      num_live_(seed.NumEdges()),
      adj_(seed.NumVertices()) {
  assert(sup.size() == seed.NumEdges());
  slots_.resize(seed.NumEdges());
  std::uint64_t support_sum = 0;
  for (EdgeId e = 0; e < seed.NumEdges(); ++e) {
    const VertexId u = seed.EdgeUpper(e);
    const VertexId v = seed.EdgeLower(e);
    Link(e, u, v, sup[e]);
    support_sum += sup[e];
  }
  // Every butterfly contributes +1 support to each of its four edges.
  num_butterflies_ = support_sum / 4;
}

EdgeId DynamicBipartiteGraph::FindEdge(VertexId a, VertexId b) const {
  if (a >= NumVertices() || b >= NumVertices()) return kInvalidEdge;
  if (Degree(b) < Degree(a)) std::swap(a, b);
  for (const Entry& entry : adj_[a]) {
    if (entry.neighbor == b) return entry.edge;
  }
  return kInvalidEdge;
}

StatusOr<EdgeId> DynamicBipartiteGraph::InsertEdge(VertexId upper_local,
                                                   VertexId lower_local,
                                                   UpdateDelta* delta) {
  if (upper_local >= num_upper_ || lower_local >= num_lower_) {
    return InvalidArgumentError("InsertEdge: endpoint out of range");
  }
  const VertexId u = upper_local;
  const VertexId v = num_upper_ + lower_local;
  if (FindEdge(u, v) != kInvalidEdge) {
    return AlreadyExistsError("InsertEdge: edge already present");
  }
  if (delta != nullptr) delta->Clear();

  // New butterflies are exactly those through (u, v); each adds +1 support
  // to its three pre-existing edges, and the new edge collects the total.
  const std::uint64_t found = ShiftPartnerSupports(u, v, true, delta);
  num_butterflies_ += found;

  EdgeId e;
  if (!free_slots_.empty()) {
    e = free_slots_.back();
    free_slots_.pop_back();
  } else {
    e = static_cast<EdgeId>(slots_.size());
    slots_.emplace_back();
  }
  Link(e, u, v, internal::SaturatingSupportCast(found));
  ++num_live_;
  return e;
}

Status DynamicBipartiteGraph::DeleteEdge(EdgeId e, UpdateDelta* delta) {
  if (!IsLive(e)) {
    return NotFoundError("DeleteEdge: no live edge in this slot");
  }
  if (delta != nullptr) delta->Clear();
  EdgeSlot& slot = slots_[e];
  const VertexId u = slot.upper;
  const VertexId v = slot.lower;

  // The edge is still present; its own adjacency entries are skipped by the
  // enumeration, so only the three OTHER edges of each lost butterfly get
  // the -1 delta.  A support-0 edge is in no butterfly, so the wedge walk
  // would find nothing — skip it.
  if (slot.support != 0) {
    const std::uint64_t found = ShiftPartnerSupports(u, v, false, delta);
    assert(found == slot.support);
    num_butterflies_ -= found;
  }

  RemoveAdjEntry(u, slot.upper_pos);
  RemoveAdjEntry(v, slot.lower_pos);
  slot = EdgeSlot{};  // upper == kInvalidVertex marks the slot free
  free_slots_.push_back(e);
  --num_live_;
  return OkStatus();
}

std::uint64_t DynamicBipartiteGraph::ShiftPartnerSupports(
    VertexId u, VertexId v, bool gained, UpdateDelta* delta) {
  std::uint64_t found = 0;
  internal::ForEachButterflyThroughEdge(
      *this, u, v, closing_mark_, [&](EdgeId e1, EdgeId e2, EdgeId e3) {
        ++found;
        for (const EdgeId e : {e1, e2, e3}) {
          slots_[e].support =
              gained ? internal::SaturatingIncrement(slots_[e].support)
                     : internal::SaturatingDecrement(slots_[e].support);
          if (delta != nullptr) delta->touched.push_back(e);
        }
      });
  if (delta != nullptr) delta->butterflies = found;
  return found;
}

void DynamicBipartiteGraph::Link(EdgeId e, VertexId u, VertexId v,
                                 SupportT support) {
  slots_[e] = {u, v, static_cast<std::uint32_t>(adj_[u].size()),
               static_cast<std::uint32_t>(adj_[v].size()), support};
  adj_[u].push_back({v, e});
  adj_[v].push_back({u, e});
}

void DynamicBipartiteGraph::RemoveAdjEntry(VertexId v, std::uint32_t pos) {
  std::vector<Entry>& list = adj_[v];
  if (pos + 1 != list.size()) {
    const Entry moved = list.back();
    list[pos] = moved;
    EdgeSlot& ms = slots_[moved.edge];
    if (ms.upper == v) {
      ms.upper_pos = pos;
    } else {
      ms.lower_pos = pos;
    }
  }
  list.pop_back();
}

std::vector<EdgeId> DynamicBipartiteGraph::CompactSlots() {
  const EdgeId old_slots = NumSlots();
  std::vector<EdgeId> mapping(old_slots, kInvalidEdge);
  EdgeId next = 0;
  for (EdgeId e = 0; e < old_slots; ++e) {
    if (IsLive(e)) mapping[e] = next++;
  }
  free_slots_.clear();
  free_slots_.shrink_to_fit();
  if (next == old_slots) return mapping;  // already compact

  // The mapping is monotone, so live slots move strictly downward and a
  // single forward pass relocates them in place.
  for (EdgeId e = 0; e < old_slots; ++e) {
    if (mapping[e] != kInvalidEdge && mapping[e] != e) {
      slots_[mapping[e]] = slots_[e];
    }
  }
  slots_.resize(next);
  slots_.shrink_to_fit();
  for (std::vector<Entry>& list : adj_) {
    for (Entry& entry : list) entry.edge = mapping[entry.edge];
  }
  return mapping;
}

GraphSnapshot DynamicBipartiteGraph::Snapshot() const {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(num_live_);
  for (const EdgeSlot& slot : slots_) {
    if (slot.upper != kInvalidVertex) {
      pairs.emplace_back(slot.upper, slot.lower - num_upper_);
    }
  }
  // The constructor sorts the pairs into BipartiteGraph's lexicographic
  // edge-id order; each CSR edge then finds its slot with FindEdge.
  GraphSnapshot snapshot;
  snapshot.graph = BipartiteGraph(num_upper_, num_lower_, std::move(pairs));
  const EdgeId m = snapshot.graph.NumEdges();
  snapshot.slot_of_edge.resize(m);
  for (EdgeId e = 0; e < m; ++e) {
    snapshot.slot_of_edge[e] =
        FindEdge(snapshot.graph.EdgeUpper(e), snapshot.graph.EdgeLower(e));
  }
  return snapshot;
}

DynamicGraphState DynamicBipartiteGraph::ExportState() const {
  DynamicGraphState state;
  state.num_upper = num_upper_;
  state.num_lower = num_lower_;
  state.num_butterflies = num_butterflies_;
  state.upper.reserve(slots_.size());
  state.lower.reserve(slots_.size());
  state.support.reserve(slots_.size());
  for (const EdgeSlot& slot : slots_) {
    state.upper.push_back(slot.upper);
    state.lower.push_back(slot.lower);
    state.support.push_back(slot.support);
  }
  state.free_slots = free_slots_;
  return state;
}

StatusOr<DynamicBipartiteGraph> DynamicBipartiteGraph::FromState(
    const DynamicGraphState& state) {
  const std::size_t num_slots = state.upper.size();
  if (state.lower.size() != num_slots || state.support.size() != num_slots) {
    return DataLossError("graph state: slot arrays disagree in length");
  }
  if (static_cast<std::uint64_t>(state.num_upper) + state.num_lower >=
      kInvalidVertex) {
    return DataLossError("graph state: vertex counts overflow the id space");
  }
  DynamicBipartiteGraph graph;
  graph.num_upper_ = state.num_upper;
  graph.num_lower_ = state.num_lower;
  graph.adj_.assign(graph.NumVertices(), {});
  graph.slots_.resize(num_slots);

  std::vector<char> is_free(num_slots, 0);
  std::uint64_t support_sum = 0;
  EdgeId live = 0;
  for (std::size_t s = 0; s < num_slots; ++s) {
    const VertexId u = state.upper[s];
    const VertexId v = state.lower[s];
    if (u == kInvalidVertex) {
      if (v != kInvalidVertex || state.support[s] != 0) {
        return DataLossError("graph state: malformed free slot");
      }
      is_free[s] = 1;
      continue;  // slots_[s] default-constructed == free
    }
    if (u >= state.num_upper || v < state.num_upper ||
        v >= state.num_upper + state.num_lower) {
      return DataLossError("graph state: edge endpoint out of range");
    }
    graph.Link(static_cast<EdgeId>(s), u, v, state.support[s]);
    support_sum += state.support[s];
    ++live;
  }
  // A duplicate edge lists the same lower vertex twice in one upper
  // vertex's adjacency; last_upper[w] is the last upper vertex seen at w.
  std::vector<VertexId> last_upper(graph.NumVertices(), kInvalidVertex);
  for (VertexId u = 0; u < graph.num_upper_; ++u) {
    for (const Entry& entry : graph.adj_[u]) {
      if (last_upper[entry.neighbor] == u) {
        return DataLossError("graph state: duplicate edge");
      }
      last_upper[entry.neighbor] = u;
    }
  }
  // Every butterfly contributes +1 support to each of its four edges.
  if (support_sum != 4 * state.num_butterflies) {
    return DataLossError(
        "graph state: support sum disagrees with butterfly count");
  }
  if (state.free_slots.size() != num_slots - live) {
    return DataLossError("graph state: free-slot stack size mismatch");
  }
  std::vector<char> seen(num_slots, 0);
  for (const EdgeId s : state.free_slots) {
    if (s >= num_slots || is_free[s] == 0 || seen[s] != 0) {
      return DataLossError("graph state: free-slot stack inconsistent");
    }
    seen[s] = 1;
  }
  graph.free_slots_ = state.free_slots;
  graph.num_live_ = live;
  graph.num_butterflies_ = state.num_butterflies;
  return graph;
}

std::uint64_t DynamicBipartiteGraph::MemoryBytes() const {
  std::uint64_t adjacency = 0;
  for (const std::vector<Entry>& list : adj_) {
    adjacency += list.capacity() * sizeof(Entry);
  }
  return sizeof(*this) + adjacency + slots_.capacity() * sizeof(EdgeSlot) +
         (free_slots_.capacity() + closing_mark_.capacity()) * sizeof(EdgeId);
}

}  // namespace bitruss
