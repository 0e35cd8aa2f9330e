// Bottom-up peeling over the BE-Index (Algorithms BiT-BU / BiT-BU+ /
// BiT-BU++ of Wang et al., ICDE'20).
//
// The peeler owns a bucket queue keyed by current support and repeatedly
// removes minimum-support edges, assigning phi(e) = max level reached so
// far.  Removal updates follow Lemma 5 through the index:
//
//   kSingle      one edge at a time (BiT-BU).
//   kBatchEdges  removes the whole current support level as a batch and
//                skips updates targeting in-batch edges (BiT-BU+,
//                "batch edge processing").
//   kBatchBlooms additionally groups the batch's dead wedges by bloom and
//                applies per-bloom aggregate updates: each surviving twin
//                of a dead wedge gets one -(k(B)-1) update, each surviving
//                wedge endpoint one -t update, where t is the number of
//                wedges the bloom lost (BiT-BU++, "batch bloom
//                processing").  Results are identical; only the number of
//                update operations shrinks.
//
// Frozen edges (BiT-PC's assigned or out-of-candidate edges) are never
// enqueued, never popped, and never updated; updates that would land on
// them are skipped without being counted — that skip is exactly the
// progressive-compression saving.

#ifndef BITRUSS_CORE_PEELING_STATE_H_
#define BITRUSS_CORE_PEELING_STATE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/be_index_builder.h"
#include "graph/types.h"
#include "util/timer.h"

namespace bitruss {

struct PeelCounters {
  std::uint64_t support_updates = 0;
  /// Updates received per edge; sized on demand when tracking is enabled.
  std::vector<std::uint64_t> per_edge_updates;
};

struct PeelerOptions {
  /// Edges excluded from peeling (never popped, never updated).  Empty
  /// means none.
  std::vector<std::uint8_t> frozen;
  bool track_per_edge_updates = false;
};

class Peeler {
 public:
  enum class Mode {
    kSingle,       ///< BiT-BU
    kBatchEdges,   ///< BiT-BU+
    kBatchBlooms,  ///< BiT-BU++
  };

  Peeler(BEIndex index, std::vector<SupportT> support, PeelerOptions options,
         PeelCounters* counters);

  /// Peels every non-frozen edge, invoking on_assign(e, phi) as each edge's
  /// bitruss number is fixed.  Returns false if the deadline expired before
  /// completion (the remaining edges keep their current state).
  bool Run(Mode mode, const Deadline& deadline,
           const std::function<void(EdgeId, SupportT)>& on_assign);

 private:
  bool IsFrozen(EdgeId e) const {
    return !options_.frozen.empty() && options_.frozen[e];
  }
  void ApplyUpdate(EdgeId e, SupportT delta);
  void RemoveEdgeWedges(EdgeId e);
  void ProcessBatchBlooms(const std::vector<EdgeId>& batch);

  BEIndex index_;
  std::vector<SupportT> support_;
  PeelerOptions options_;
  PeelCounters* counters_;

  std::vector<std::uint8_t> removed_;
  std::vector<std::vector<EdgeId>> buckets_;
  SupportT cursor_ = 0;  ///< lowest possibly non-empty bucket

  // Scratch for kBatchBlooms.
  std::vector<std::uint8_t> wedge_dying_;
  std::vector<BloomId> dirty_blooms_;
  std::vector<std::vector<WedgeId>> bloom_dying_;  // indexed by bloom id
};

}  // namespace bitruss

#endif  // BITRUSS_CORE_PEELING_STATE_H_
