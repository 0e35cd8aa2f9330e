#include "core/verify.h"

#include <algorithm>
#include <set>

#include "butterfly/butterfly_counting.h"
#include "graph/subgraph.h"

namespace bitruss {

namespace {

// Maximal subgraph of g in which every edge is contained in at least k
// butterflies, as an edge mask (the k-bitruss; the whole graph for k = 0).
std::vector<std::uint8_t> KBitrussEdges(const BipartiteGraph& g, SupportT k) {
  std::vector<std::uint8_t> alive(g.NumEdges(), 1);
  if (k == 0) return alive;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<EdgeId> origin;
    const BipartiteGraph sub = EdgeMaskSubgraph(g, alive, &origin);
    const std::vector<SupportT> sup = CountEdgeSupports(sub);
    for (EdgeId se = 0; se < sub.NumEdges(); ++se) {
      if (sup[se] < k) {
        alive[origin[se]] = 0;
        changed = true;
      }
    }
  }
  return alive;
}

}  // namespace

bool VerifyBitrussNumbers(const BipartiteGraph& g,
                          const std::vector<SupportT>& phi,
                          std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (phi.size() != g.NumEdges()) {
    return fail("phi has " + std::to_string(phi.size()) + " entries, graph has " +
                std::to_string(g.NumEdges()) + " edges");
  }
  std::set<SupportT> levels(phi.begin(), phi.end());
  const SupportT max_phi = levels.empty() ? 0 : *levels.rbegin();
  levels.insert(max_phi + 1);  // nothing may survive above the claimed max
  for (const SupportT k : levels) {
    if (k == 0) continue;
    const std::vector<std::uint8_t> in_bitruss = KBitrussEdges(g, k);
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const bool claimed = phi[e] >= k;
      if (claimed != static_cast<bool>(in_bitruss[e])) {
        return fail("edge " + std::to_string(e) + ": phi=" +
                    std::to_string(phi[e]) + " but k-bitruss membership for k=" +
                    std::to_string(k) + " is " +
                    (in_bitruss[e] ? "true" : "false"));
      }
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace bitruss
