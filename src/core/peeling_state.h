// Bottom-up peeling over the BE-Index (Algorithms BiT-BU / BiT-BU+ /
// BiT-BU++ of Wang et al., ICDE'20).
//
// SupportBuckets, the one bucket queue of every peel (BiT-BS included),
// keeps an intrusive list per support level: an edge moves between levels
// in O(1) for any delta, and no entry is ever stale.  The peeler takes
// minimum-support edges from it, assigning phi(e) = max level so far, and
// applies Lemma 5's removal updates through the index:
//
//   kSingle      one edge at a time (BiT-BU).
//   kBatchEdges  the whole lowest level as a batch; updates targeting
//                in-batch edges are skipped (BiT-BU+).
//   kBatchBlooms additionally kills the batch's wedges first, counting the
//                t each bloom loses, then gives each surviving twin of a
//                dead wedge one -(k(B)-1) update and each surviving wedge
//                endpoint one -t update (BiT-BU++).  KillWedge parks the t
//                dead wedges right after the bloom's live prefix, so they
//                are read from there.  Results are identical; only the
//                number of update operations shrinks.
//
// Every bloom walk reads the index's slot_edges, the wedge pairs in bloom
// slot order (be_index_builder.h), front to back: the update targets of a
// bloom come from one contiguous run, not one wedge-id lookup per wedge.
// Run takes its assignment callback as a template parameter, so the loop
// makes no indirect call per peeled edge.
//
// Frozen edges (BiT-PC's assigned or out-of-candidate edges) are never
// queued, never taken, and never updated; updates that would land on
// them are skipped without being counted — that skip is exactly the
// progressive-compression saving.

#ifndef BITRUSS_CORE_PEELING_STATE_H_
#define BITRUSS_CORE_PEELING_STATE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/be_index_builder.h"
#include "core/bitruss_result.h"
#include "graph/types.h"
#include "util/timer.h"

namespace bitruss {

class SupportBuckets {
 public:
  /// Queues every edge e with `skip` empty or skip[e] == 0 at level
  /// support[e].
  SupportBuckets(const std::vector<SupportT>& support,
                 const std::vector<std::uint8_t>& skip);

  /// Moves queued edge e from level `from` (its current level) to level
  /// `to`, in O(1) for any distance.  `to` must not exceed the largest
  /// level queued at construction.
  void Move(EdgeId e, SupportT from, SupportT to);

  /// Clears `out`, unlinks up to `limit` edges of the lowest non-empty
  /// level into it, and returns that level.  `out` stays empty once every
  /// edge has been taken.  Taken edges must not be moved again.
  SupportT TakeLowest(std::size_t limit, std::vector<EdgeId>* out);

 private:
  std::vector<EdgeId> head_;  ///< first edge of each level's list
  std::vector<EdgeId> next_;  ///< per edge; kInvalidEdge ends a list
  std::vector<EdgeId> prev_;  ///< per edge; kInvalidEdge marks a head
  SupportT cursor_ = 0;       ///< no queued edge sits below this level
  std::size_t queued_ = 0;
};

class Peeler {
 public:
  enum class Mode {
    kSingle,       ///< BiT-BU
    kBatchEdges,   ///< BiT-BU+
    kBatchBlooms,  ///< BiT-BU++
  };

  /// `frozen` (empty means none) excludes edges from the peel.  Support
  /// updates accumulate into `counters`, per edge as well when
  /// counters->per_edge_updates is sized.
  Peeler(BEIndex index, std::vector<SupportT> support,
         std::vector<std::uint8_t> frozen, UpdateCounters* counters);

  /// Peels every non-frozen edge, invoking on_assign(e, phi) as each edge's
  /// bitruss number is fixed.  Returns false if the deadline expired before
  /// completion (the remaining edges keep their current state).
  template <typename OnAssign>
  bool Run(Mode mode, const Deadline& deadline, OnAssign&& on_assign);

 private:
  static constexpr std::size_t kDeadlinePollInterval = 1024;

  void ApplyUpdate(EdgeId e, SupportT delta);
  void RemoveEdgeWedges(EdgeId e);
  void ProcessBatchBlooms(const std::vector<EdgeId>& batch);
  /// Applies Lemma 5's updates for a batch already marked done.
  void RemoveBatch(Mode mode, const std::vector<EdgeId>& batch);
  /// Adds one Run's assignment steps to bitruss_core_peel_rounds_total.
  static void RecordRounds(std::uint64_t rounds);

  BEIndex index_;
  std::vector<SupportT> support_;
  /// Edges out of the queue: frozen on entry or already peeled.
  std::vector<std::uint8_t> done_;
  UpdateCounters* counters_;
  bool track_per_edge_;
  SupportBuckets queue_;

  // Scratch for kBatchBlooms: wedges the current batch killed per bloom.
  std::vector<SupportT> bloom_killed_;
  std::vector<BloomId> dirty_blooms_;
};

template <typename OnAssign>
bool Peeler::Run(Mode mode, const Deadline& deadline, OnAssign&& on_assign) {
  // kSingle takes one edge per step; the batch modes take a whole level,
  // all of it marked done before any update is applied.
  const std::size_t limit =
      mode == Mode::kSingle ? 1 : static_cast<std::size_t>(index_.num_edges);
  SupportT level = 0;
  std::size_t since_poll = 0;
  std::uint64_t rounds = 0;
  bool completed = true;
  std::vector<EdgeId> batch;

  for (;;) {
    const SupportT at = queue_.TakeLowest(limit, &batch);
    if (batch.empty()) break;
    ++rounds;
    level = std::max(level, at);
    for (const EdgeId e : batch) {
      done_[e] = 1;
      on_assign(e, level);
    }
    RemoveBatch(mode, batch);
    // Poll by edges peeled, so the deadline stays responsive whether a
    // step is one edge or a whole level.
    since_poll += batch.size();
    if (since_poll >= kDeadlinePollInterval) {
      since_poll = 0;
      if (deadline.Expired()) {
        completed = false;
        break;
      }
    }
  }
  RecordRounds(rounds);
  return completed;
}

}  // namespace bitruss

#endif  // BITRUSS_CORE_PEELING_STATE_H_
