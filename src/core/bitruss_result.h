// Result and counter types shared by every decomposition algorithm and the
// bench harnesses.

#ifndef BITRUSS_CORE_BITRUSS_RESULT_H_
#define BITRUSS_CORE_BITRUSS_RESULT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace bitruss {

/// One BiT-PC iteration, for Figure 8's progressive-compression trace.
struct PCIterationTrace {
  std::uint64_t theta = 0;            ///< support threshold of the iteration
  std::uint64_t candidate_edges = 0;  ///< unassigned edges in the candidate
  std::uint64_t assigned_now = 0;     ///< bitruss numbers fixed this round
  std::uint64_t index_bytes = 0;      ///< compressed BE-Index footprint
  double seconds = 0;  ///< wall time of the round, cascade recount included
};

/// Work counters accumulated during a decomposition run.
struct UpdateCounters {
  double counting_seconds = 0;  ///< support counting + index construction
  double peeling_seconds = 0;   ///< peeling (per-iteration work for PC)
  /// Number of butterfly-support updates applied to edges.  A bloom-twin
  /// bulk update (-= k(B)-1, Lemma 5) counts as one update.
  std::uint64_t support_updates = 0;
  /// Largest online index footprint (full BE-Index for BU/BU+/BU++; max
  /// per-iteration compressed index for PC; 0 for BS).
  std::uint64_t peak_index_bytes = 0;
  /// Updates received per edge; sized NumEdges() only when
  /// DecomposeOptions::track_per_edge_updates was set.
  std::vector<std::uint64_t> per_edge_updates;
};

struct BitrussResult {
  /// Bitruss number phi(e) per edge.  Partial (unassigned edges read 0)
  /// when timed_out is set.
  std::vector<SupportT> phi;
  /// Butterfly support per edge in the input graph, before any peeling.
  std::vector<SupportT> original_support;
  std::uint64_t total_butterflies = 0;
  bool timed_out = false;
  UpdateCounters counters;
  /// Per-iteration trace; populated only by Algorithm::kPC.
  std::vector<PCIterationTrace> pc_trace;

  SupportT MaxSupport() const {
    return original_support.empty()
               ? 0
               : *std::max_element(original_support.begin(),
                                   original_support.end());
  }

  SupportT MaxPhi() const {
    return phi.empty() ? 0 : *std::max_element(phi.begin(), phi.end());
  }
};

}  // namespace bitruss

#endif  // BITRUSS_CORE_BITRUSS_RESULT_H_
