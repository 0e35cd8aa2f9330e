// Incremental bitruss (phi) maintenance over a DynamicBipartiteGraph.
//
// `IncrementalBitruss` keeps exact bitruss numbers current across an edge
// update stream: it owns a DynamicBipartiteGraph (which already maintains
// exact butterfly supports per update), computes the initial phi with one
// full Decompose() of the seed (whose supports also seed the graph's), and
// on each InsertEdge/DeleteEdge repairs phi by a bounded local re-peel
// instead of recounting the world.  After every update the maintained phi
// is bit-identical to a from-scratch Decompose() of the graph — the repair
// is exact, not approximate.
//
// Why a local repair is exact.  Updates move phi monotonically (an insert
// can only raise bitruss numbers, a delete only lower them) and inside a
// provable band around the updated edge e0:
//
//   insert  every changed edge f has phi_old(f) < phi_new(e0) and
//           phi_new(f) <= phi_new(e0): a risen edge lies in a
//           (phi_old(f)+1)-bitruss of the new graph, which must contain e0
//           (otherwise it existed before the insert).  phi_new(e0) is not
//           known up front, so the repair uses the upper bound
//           K = h-index over e0's butterflies of min(partner supports),
//           which dominates it.
//   delete  symmetrically, every changed edge had phi_old(f) <=
//           phi_old(e0) = K — known exactly, no estimate needed.
//
// Changed edges also chain to the support-delta set through shared
// butterflies between changed edges (an edge's phi cannot move unless its
// own butterflies changed or a butterfly partner moved), so seeding the
// dirty frontier from the edges whose supports changed and expanding only
// through edges whose phi can still move (old phi inside the band, support
// above old phi) reaches every edge the update can affect.  The repair
// then runs core/local_peel.h's warm-start h-index iteration down from
// per-edge upper bounds; see that header for the fixpoint argument.
//
// Cascades are budgeted: an update whose local repair would enumerate
// more than `cascade_budget` butterflies (band expansion + repair
// combined) abandons the local path, and phi is recomputed with one
// Decompose() of the whole slot table — exact, because phi depends only
// on the final graph, not on the updates that led to it.  The repair
// bails out as soon as a lower bound on that total passes the budget:
// walking an edge enumerates exactly its Support() butterflies, so the
// edges already queued for a walk (an insert's band frontier, the
// re-peel's worklist) bound the rest of the work before it is done.  The
// bound never exceeds the total, so an update falls back exactly when its
// full repair would pass the budget; it only stops paying sooner.
//
// Batches.  ApplyBatch() applies a run of updates with at most one such
// recompute.  Updates are repaired locally until the first one that bails
// out; its partial labels are rolled back, and it and every later update
// in the batch become plain DynamicBipartiteGraph edits (supports stay
// exact; inserted and freed slots read phi 0).  The batch ends with one
// recompute, which covers those edits for the same reason: phi depends
// only on the final graph.  A batch never recomputes more often than the
// per-update path would, and the repairs it skips become edits that path
// pays for anyway, so no cost model decides when to batch.
// InsertEdge / DeleteEdge / ApplyBatch({update}) are the batch-of-one case.
//
// Touched slots.  Alongside phi the maintainer records which slots the
// updates since the last TakeTouchedSlots() may have changed — each
// updated slot, its butterfly partners (support moved) and the repair's
// frontier (phi moved) — so a reader holding a copy of the slot arrays
// can refresh it by rewriting only those.  A recompute, a compaction or a
// restore reports every slot, and so does a list that outgrows a fixed
// share of NumSlots(): a caller that never takes the report holds O(slots)
// at most.

#ifndef BITRUSS_DYNAMIC_INCREMENTAL_BITRUSS_H_
#define BITRUSS_DYNAMIC_INCREMENTAL_BITRUSS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/decompose.h"
#include "core/local_peel.h"
#include "dynamic/dynamic_graph.h"
#include "graph/bipartite_graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace bitruss {

struct IncrementalBitrussOptions {
  /// Maximum butterflies one update's local repair (band expansion +
  /// fixpoint iteration) may enumerate; an update whose full repair would
  /// enumerate more falls back to the whole-graph recompute, bailing out
  /// as soon as a lower bound on its enumeration passes the budget (see
  /// "Cascades are budgeted").  0 forces the fallback on every non-trivial
  /// update (useful for testing and as a recount-only baseline).  Any
  /// value but UINT64_MAX is further capped at half the graph's current
  /// NumButterflies() (floor 1024): the fallback Decompose costs on the
  /// order of the butterfly count (one wedge enumeration, then a peel),
  /// and a local repair pays a few array reads per enumerated butterfly
  /// plus its h-index work, so one that enumerates more is not expected
  /// to beat the fallback — dense blocks (hub-heavy graphs like D-style)
  /// bail out early instead of paying budget + recount.  UINT64_MAX is
  /// taken literally: every repair stays local, with no fallback.
  std::uint64_t cascade_budget = 1u << 20;
  /// Algorithm/options for the initial decomposition and the fallback
  /// recomputes.  The deadline is ignored (cleared at construction): a
  /// timed-out partial phi would poison every later repair.
  DecomposeOptions decompose;
};

/// Repair telemetry of the last call (reset by each InsertEdge, DeleteEdge
/// and ApplyBatch); after ApplyBatch it sums the batch's updates.
struct IncrementalUpdateStats {
  bool fallback = false;  ///< a repair bailed out -> whole-graph recompute
  /// Local-repair work; on a fallback, the work done before the bail-out.
  std::uint64_t enumerated_butterflies = 0;
  std::uint64_t frontier_edges = 0;  ///< dirty edges seeded + pulled in
  std::uint64_t phi_changes = 0;     ///< edges whose phi actually moved
};

/// One edge mutation addressed by its endpoint pair (side-local ids, like
/// the DynamicBipartiteGraph mutation APIs): slot ids are writer-internal
/// and do not survive compaction, but the pair always names the same edge.
struct EdgeUpdate {
  enum class Kind : std::uint8_t { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  VertexId upper_local = 0;
  VertexId lower_local = 0;
};

/// The slots a run of updates may have changed (phi, support or
/// liveness); see "Touched slots" above.
struct TouchedSlots {
  /// Every slot may have changed; `slots` is then empty.
  bool all = true;
  /// Duplicate-free slot ids, in first-touch order, when !all.
  std::vector<EdgeId> slots;
};

/// Stream-lifetime aggregates.
struct IncrementalTotals {
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  /// Updates fully handled by the bounded local re-peel (includes trivial
  /// updates that touched no butterfly).
  std::uint64_t local_repairs = 0;
  std::uint64_t fallbacks = 0;
  /// Updates applied as plain graph edits after their batch's first
  /// fallback; the batch's closing recompute covers them.  local_repairs
  /// + fallbacks + deferred_edits == inserts + deletes.
  std::uint64_t deferred_edits = 0;
  std::uint64_t enumerated_butterflies = 0;
  std::uint64_t phi_changes = 0;
};

class IncrementalBitruss {
 public:
  explicit IncrementalBitruss(const BipartiteGraph& seed,
                              IncrementalBitrussOptions options = {});

  /// Restore constructor for recovery: adopts an already-maintained graph
  /// and its phi (indexed by slot, size graph.NumSlots()) WITHOUT the
  /// initial Decompose().  The caller vouches that phi is the exact
  /// decomposition of `graph` — recovery loads both from one checksummed
  /// snapshot, so they can only disagree if the writer was wrong, not
  /// through bit rot.  Throws std::invalid_argument on a size mismatch.
  IncrementalBitruss(DynamicBipartiteGraph graph, std::vector<SupportT> phi,
                     IncrementalBitrussOptions options = {});

  /// Copying would silently fork the maintained phi (and duplicate the
  /// graph plus all repair scratch); pass by reference or move instead.
  IncrementalBitruss(const IncrementalBitruss&) = delete;
  IncrementalBitruss& operator=(const IncrementalBitruss&) = delete;
  IncrementalBitruss(IncrementalBitruss&&) = default;
  IncrementalBitruss& operator=(IncrementalBitruss&&) = default;

  const DynamicBipartiteGraph& Graph() const { return graph_; }

  /// Maintained bitruss number of a live slot.  Free slots read 0, and so
  /// does any slot id at or past Graph().NumSlots() — stale ids from
  /// before a CompactSlots() (exactly what a concurrent reader may hold)
  /// are answered, not trusted.  Use CheckedPhi() to distinguish the
  /// cases.
  SupportT Phi(EdgeId slot) const {
    return slot < phi_.size() ? phi_[slot] : 0;
  }
  /// Phi with an explicit contract: kInvalidArgument for a slot id outside
  /// [0, Graph().NumSlots()), kNotFound for a free (deleted) slot.
  [[nodiscard]] StatusOr<SupportT> CheckedPhi(EdgeId slot) const {
    if (slot >= phi_.size()) {
      return InvalidArgumentError("slot id out of range");
    }
    if (!graph_.IsLive(slot)) return NotFoundError("slot is free");
    return phi_[slot];
  }
  /// Maintained phi indexed by slot id, size Graph().NumSlots().
  const std::vector<SupportT>& PhiBySlot() const { return phi_; }

  /// Graph mutation with exact phi repair.  Status contracts match
  /// DynamicBipartiteGraph; failed updates change nothing.
  [[nodiscard]] StatusOr<EdgeId> InsertEdge(VertexId upper_local,
                                            VertexId lower_local);
  [[nodiscard]] Status DeleteEdge(EdgeId slot);
  /// Applies `updates` in order, as a batch (see the header comment), and
  /// returns how many failed.  An insert fails as InsertEdge does; a
  /// delete is DeleteEdge of the slot holding the pair and fails when no
  /// such edge is live.  Slots, supports and phi afterwards are identical
  /// to applying each update as a batch of its own.
  std::uint64_t ApplyBatch(const std::vector<EdgeUpdate>& updates);

  /// Compacts the underlying slot table (DynamicBipartiteGraph::
  /// CompactSlots) and remaps the maintained phi.  Returns the old-slot ->
  /// new-slot mapping; previously handed-out EdgeIds are invalidated.
  std::vector<EdgeId> CompactSlots();

  /// Moves the slots touched since the previous call (since construction
  /// for the first, which reports all) into *out and starts an empty
  /// report; out's old buffer is reused for it.
  void TakeTouchedSlots(TouchedSlots* out);

  const IncrementalUpdateStats& LastUpdateStats() const { return last_; }
  const IncrementalTotals& Totals() const { return totals_; }

 private:
  /// Seeds graph and phi from one decomposition of the seed.
  IncrementalBitruss(const BipartiteGraph& seed, BitrussResult seeded,
                     IncrementalBitrussOptions options);
  /// Resizes/resets every piece of slot-indexed scratch to the current
  /// slot table in one place — called after CompactSlots() renumbers the
  /// slots, so no stale-sized buffer (stamps, frontier, peel scratch,
  /// delta report) survives a compaction.
  void ResetSlotScratch();
  /// Per-update enumeration budget: cascade_budget, capped at half the
  /// current butterfly count unless it is UINT64_MAX (see
  /// IncrementalBitrussOptions).
  std::uint64_t EffectiveBudget() const;
  /// Lazily sizes the stamp scratch to NumSlots() and opens a new epoch.
  void NewEpoch();
  bool Stamped(EdgeId e) const { return stamp_[e] == epoch_; }
  void Stamp(EdgeId e) { stamp_[e] = epoch_; }

  /// One update inside the current batch: local repair, or a plain edit
  /// once the batch has fallen back.  No recompute runs here.
  StatusOr<EdgeId> Insert(VertexId upper_local, VertexId lower_local);
  Status Delete(EdgeId slot);
  Status ApplyOne(const EdgeUpdate& update);
  /// Local repair after a successful insert of `slot`; false on budget
  /// exhaustion (phi is then part-way repaired until the fallback runs).
  bool RepairInsert(EdgeId slot);
  /// Local repair after a successful delete whose edge had phi `k_star`.
  bool RepairDelete(SupportT k_star);
  /// Books a repaired update; a failed repair is rolled back and marks the
  /// batch as fallen back.
  void FinishUpdate(bool local_ok);
  /// Books a plain edit made after the batch fell back.
  void DeferEdit();
  /// Ends a batch: runs the recompute if a repair bailed out.
  void FinishBatch();
  /// Exact fallback: Decompose() the slot table in place and adopt its
  /// slot-indexed phi.
  void Recompute();
  /// Adds `slot` to the touched report, collapsing it to all past
  /// NumSlots() / kTouchedShare entries.
  void Touch(EdgeId slot);
  /// Reports every slot and drops the list.
  void TouchAll();
  /// Touches an applied update's slot and, unless the batch fell back,
  /// the butterfly partners its delta lists.
  void TouchEdit(EdgeId slot, bool deferred);

  IncrementalBitrussOptions options_;
  DynamicBipartiteGraph graph_;
  std::vector<SupportT> phi_;  // by slot id; free slots hold 0

  // Reusable per-update scratch.
  UpdateDelta delta_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<EdgeId> frontier_;
  LocalPeelScratch scratch_;
  std::vector<std::pair<EdgeId, SupportT>> entry_labels_;
  /// A repair in the current batch bailed out: later updates are plain
  /// edits and the batch ends with a Recompute().
  bool batch_fell_back_ = false;

  /// The report TakeTouchedSlots() hands out, and its membership by slot
  /// (1 iff listed in touched_.slots).
  TouchedSlots touched_;
  std::vector<std::uint8_t> touched_mark_;

  IncrementalUpdateStats update_;  // the update being repaired
  IncrementalUpdateStats last_;
  IncrementalTotals totals_;
};

}  // namespace bitruss

#endif  // BITRUSS_DYNAMIC_INCREMENTAL_BITRUSS_H_
