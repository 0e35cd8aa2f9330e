#include "graph/vertex_priority.h"

namespace bitruss {

const PriorityAdjacency::Entry* PriorityAdjacency::FirstBelowPriority(
    VertexId r, VertexId bound) const {
  const Range range = Neighbors(r);
  return std::partition_point(
      range.begin(), range.end(),
      [bound](const Entry& e) { return e.rank <= bound; });
}

std::uint64_t PriorityAdjacency::MemoryBytes() const {
  return offsets_.size() * sizeof(std::uint64_t) +
         entries_.size() * sizeof(Entry);
}

}  // namespace bitruss
