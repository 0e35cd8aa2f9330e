// Independent verification of bitruss numbers.
//
// Works from the definition, not from any decomposition machinery: for
// every distinct k, the k-bitruss of g (computed by cascade deletion of
// edges with sub-k support) must equal {e : phi(e) >= k}.  Cost is one
// cascade per distinct phi value — intended for tests and spot checks, not
// for production paths.

#ifndef BITRUSS_CORE_VERIFY_H_
#define BITRUSS_CORE_VERIFY_H_

#include <string>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/types.h"

namespace bitruss {

/// True iff `phi` is exactly the bitruss decomposition of g.  On failure,
/// `error` (when non-null) receives a human-readable reason.
bool VerifyBitrussNumbers(const BipartiteGraph& g,
                          const std::vector<SupportT>& phi,
                          std::string* error = nullptr);

}  // namespace bitruss

#endif  // BITRUSS_CORE_VERIFY_H_
