// Bottom-up peeling over the BE-Index (Algorithms BiT-BU / BiT-BU+ /
// BiT-BU++ of Wang et al., ICDE'20).
//
// SupportBuckets, the one bucket queue of every peel (BiT-BS included),
// is windowed (Julienne-style): only edges whose support is below
// window_end_, at most kWindow levels above the lowest support at the last
// refill, sit in an intrusive list per level; every other edge waits
// unlinked in an overflow list.  A support update inside the window
// relinks the edge in O(1); one that stays at or above window_end_ touches
// nothing, and most updates hit hub edges far above the level being
// peeled.  When the window runs dry, one refill pass over the overflow
// list opens the next window: O(overflow) per refill, and at most one
// refill per distinct peel level (a refill opens a level above every one
// taken so far, and that level is taken next).  Each level still holds
// exactly the edges at that support when it is taken.  The peeler takes
// minimum-support edges from it, assigning phi(e) = max level so far, and
// applies Lemma 5's removal updates through the index:
//
//   kSingle      one edge at a time (BiT-BU).
//   kBatchEdges  the whole lowest level as a batch; updates targeting
//                in-batch edges are skipped (BiT-BU+).
//   kBatchBlooms additionally kills the batch's wedges first, counting the
//                t each bloom loses, then gives each surviving twin of a
//                dead wedge one -(k(B)-1) update and each surviving wedge
//                endpoint one -t update (BiT-BU++).  Results are
//                identical; only the number of update operations shrinks.
//
// The index has no wedge ids (be_index_builder.h): a wedge is alive while
// neither edge is removed, read off one state byte per edge, and the peel
// keeps each bloom's live prefix itself.  kSingle and kBatchEdges find the
// removed edge's slot in the bloom walk they make anyway and swap it out;
// kBatchBlooms counts t through the batch edges' links (a wedge with both
// edges taken is counted from its smaller edge), then partitions each
// touched bloom in one front-to-back walk of its slot_edges run, giving
// dead wedges' twins and survivors their updates on the way.  Run takes its
// assignment callback as a template parameter: no indirect call per edge.
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
  /// Levels a window spans: a refill links every overflowed edge whose
  /// support is below the lowest overflowed support plus kWindow.  Chosen
  /// from a {32, 64, 128} sweep (CHANGES.md); a much wider window relinks
  /// far edges again and gives the gain back.
  static constexpr SupportT kWindow = 64;

  /// Queues every edge e with `skip` empty or skip[e] == 0 at level
  /// support[e]; those below the lowest such support plus kWindow are
  /// linked, the rest overflow.
  SupportBuckets(const std::vector<SupportT>& support,
                 const std::vector<std::uint8_t>& skip);

  /// Moves queued edge e from level `from` (its current support) to level
  /// `to` <= `from`.  Does nothing while `to` stays at or above the
  /// window; links e when it enters the window, and relinks it in O(1)
  /// inside it.
  void Move(EdgeId e, SupportT from, SupportT to);

  /// Clears `out`, unlinks up to `limit` edges of the lowest non-empty
  /// level into it, and returns that level.  When no linked edge remains,
  /// first refills the window from the overflow list, reading each
  /// overflowed edge's current support from `support`; it may be left
  /// empty only while nothing has overflowed.  The queue keeps no
  /// reference to the supports, so its owner stays movable.  `out` stays
  /// empty once every edge has been taken.  Taken edges must not be moved
  /// again.
  SupportT TakeLowest(std::size_t limit, std::vector<EdgeId>* out,
                      const std::vector<SupportT>& support = {});

 private:
  /// Links unlinked edge e at the head of level `level`'s list.
  void Link(EdgeId e, SupportT level);
  /// Unlinks edge e from level `level`'s list.
  void Unlink(EdgeId e, SupportT level);
  /// Drops overflow entries already linked (or taken), opens the window
  /// at the lowest remaining support and links every edge inside it.
  void Refill(const std::vector<SupportT>& support);

  /// First edge of each level's list, by absolute level; sized
  /// window_end_, so a level below the cursor is still addressable.
  std::vector<EdgeId> head_;
  std::vector<EdgeId> next_;  ///< per edge; kInvalidEdge ends a list
  std::vector<EdgeId> prev_;  ///< per edge; kInvalidEdge marks a head
  /// Queued edges whose support was at or above window_end_ when last
  /// checked; entries that have since entered the window are stale until
  /// the next refill drops them.
  std::vector<EdgeId> overflow_;
  /// An edge is linked iff its support is below this; 64-bit, so a
  /// window near the top of SupportT's range does not wrap.
  std::uint64_t window_end_ = 0;
  SupportT cursor_ = 0;  ///< no linked edge sits below this level
  std::size_t linked_ = 0;
};

class Peeler {
 public:
  enum class Mode {
    kSingle,       ///< BiT-BU
    kBatchEdges,   ///< BiT-BU+
    kBatchBlooms,  ///< BiT-BU++
  };

  /// `frozen` (empty means none) is 1 (kFrozen) on each edge kept out of
  /// the peel and 0 (kOpen) elsewhere.  Support updates accumulate into
  /// `counters`, per edge as well when counters->per_edge_updates is sized.
  Peeler(BEIndex index, std::vector<SupportT> support,
         std::vector<std::uint8_t> frozen, UpdateCounters* counters);

  /// Peels every non-frozen edge, invoking on_assign(e, phi) as each edge's
  /// bitruss number is fixed.  Returns false if the deadline expired before
  /// completion (the remaining edges keep their current state).
  template <typename OnAssign>
  bool Run(Mode mode, const Deadline& deadline, OnAssign&& on_assign);

 private:
  static constexpr std::size_t kDeadlinePollInterval = 1024;

  /// Only open edges are queued and updated; taken ones are being removed.
  enum EdgeState : std::uint8_t { kOpen, kFrozen, kTaken, kRemoved };

  void ApplyUpdate(EdgeId e, SupportT delta);
  void RemoveEdgeWedges(EdgeId e);
  void ProcessBatchBlooms(const std::vector<EdgeId>& batch);
  /// Applies Lemma 5's updates for a batch already marked taken, and
  /// marks it removed.
  void RemoveBatch(Mode mode, const std::vector<EdgeId>& batch);
  /// Adds one Run's assignment steps to bitruss_core_peel_rounds_total.
  static void RecordRounds(std::uint64_t rounds);

  BEIndex index_;
  std::vector<SupportT> support_;
  std::vector<std::uint8_t> state_;  ///< an EdgeState per edge
  UpdateCounters* counters_;
  /// The current Run's support updates, added to counters_ as it returns:
  /// through counters_, every update reloads and stores the count.
  std::uint64_t updates_ = 0;
  bool track_per_edge_;
  SupportBuckets queue_;

  // Scratch for kBatchBlooms: wedges the current batch killed per bloom.
  std::vector<SupportT> bloom_killed_;
  std::vector<BloomId> dirty_blooms_;
};

template <typename OnAssign>
bool Peeler::Run(Mode mode, const Deadline& deadline, OnAssign&& on_assign) {
  // kSingle takes one edge per step; the batch modes take a whole level,
  // all of it marked taken before any update is applied.
  const std::size_t limit =
      mode == Mode::kSingle ? 1 : static_cast<std::size_t>(index_.num_edges);
  SupportT level = 0;
  std::size_t since_poll = 0;
  std::uint64_t rounds = 0;
  bool completed = true;
  std::vector<EdgeId> batch;

  for (;;) {
    const SupportT at = queue_.TakeLowest(limit, &batch, support_);
    if (batch.empty()) break;
    ++rounds;
    level = std::max(level, at);
    for (const EdgeId e : batch) {
      state_[e] = kTaken;
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
  counters_->support_updates += updates_;
  updates_ = 0;
  return completed;
}

}  // namespace bitruss

#endif  // BITRUSS_CORE_PEELING_STATE_H_
