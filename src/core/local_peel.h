// Warm-start local re-peeling: repairs bitruss numbers around a dirty
// frontier instead of re-running a full decomposition.
//
// Theory.  Bitruss numbers admit a local fixpoint characterization (the
// nucleus-decomposition analogue of the k-core h-index iteration): define
// the operator
//
//   H_L(e) = max k such that e lies in >= k butterflies whose three OTHER
//            edges f all have L(f) >= k
//
// Then phi is the greatest fixpoint of L <- min(L, H_L): for any fixpoint
// L, the edge set S_k = {e : L(e) >= k} has every edge in >= k butterflies
// inside S_k, so S_k is contained in the k-bitruss and L <= phi; and phi
// itself is a fixpoint.  Iterating L <- min(L, H_L) from ANY pointwise
// upper bound of phi therefore converges monotonically down to exactly phi.
//
// Locality.  The iteration only needs to visit edges whose label can still
// move.  LocalHIndexRepair runs the worklist over a dirty frontier with
// every label outside the (transitively pushed) region treated as exact
// and frozen: when an edge's label drops, only butterfly partners whose
// label exceeds the new value — and which the caller's `is_mutable`
// predicate admits — are (re)queued.  The caller is responsible for two
// preconditions that make the result exact (incremental_bitruss.cc derives
// both from provable affected bands):
//
//   1. every label is a pointwise upper bound on the true phi, and
//   2. every edge whose phi differs from its label either sits in the
//      initial frontier or is reachable from it through `is_mutable`
//      butterfly-partner pushes.
//
// Under 1+2 the converged labels equal phi exactly on every visited edge
// and were already exact everywhere else.

#ifndef BITRUSS_CORE_LOCAL_PEEL_H_
#define BITRUSS_CORE_LOCAL_PEEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "butterfly/wedge_enumeration.h"
#include "graph/types.h"

namespace bitruss {

/// Work accounting for one LocalHIndexRepair run.
struct LocalPeelStats {
  /// Butterflies enumerated across every H recomputation (the budget unit).
  std::uint64_t enumerated_butterflies = 0;
  std::uint64_t recomputes = 0;   ///< worklist pops that recomputed H
  std::uint64_t label_drops = 0;  ///< pops whose label strictly dropped
};

/// h-index of a butterfly weight multiset, capped at `cap`: the largest
/// k <= cap with at least k weights >= k.  `bucket` is caller-owned
/// scratch (resized to cap + 1).
inline SupportT HIndexOfWeights(const std::vector<SupportT>& weights,
                                SupportT cap,
                                std::vector<std::uint32_t>* bucket) {
  if (cap == 0 || weights.empty()) return 0;
  bucket->assign(static_cast<std::size_t>(cap) + 1, 0);
  for (const SupportT w : weights) ++(*bucket)[std::min(w, cap)];
  std::uint64_t at_or_above = 0;
  for (SupportT k = cap; k > 0; --k) {
    at_or_above += (*bucket)[k];
    if (at_or_above >= k) return k;
  }
  return 0;
}

/// Caller-owned scratch for LocalHIndexRepair so a streaming caller (one
/// repair per update) pays no per-call container allocations; each run
/// opens a new epoch instead of clearing it.
struct LocalPeelScratch {
  /// queued[e] == epoch while edge e waits in `work` during the current
  /// run; grown on demand to the label count, so a stamp left by an
  /// earlier run (or an earlier slot numbering) never matches.
  std::vector<std::uint32_t> queued;
  std::uint32_t epoch = 0;
  /// FIFO worklist of the current run, read through a moving head.
  std::vector<EdgeId> work;
  std::vector<SupportT> weights;
  std::vector<EdgeId> partners;
  std::vector<std::uint32_t> bucket;
  /// Closing-edge mark of internal::ForEachButterflyThroughEdge; all
  /// kInvalidEdge between walks.
  std::vector<EdgeId> closing_mark;
};

/// Runs the worklist iteration described above.  `labels` is indexed by
/// edge id of `adj` (an AdjT per wedge_enumeration.h that additionally
/// exposes EdgeUpper/EdgeLower and the exact butterfly count Support(e));
/// `frontier` must be duplicate-free.  Returns false, with labels part-way
/// down, exactly when the whole run would enumerate more than `budget`
/// butterflies; the caller must then fall back to a full recompute of the
/// affected region.  It stops as soon as that is certain: walking an edge
/// enumerates Support(e) butterflies, only an edge's own pop changes its
/// label, and every queued edge with a nonzero label is walked once more,
/// so the count so far plus Support over those queued edges is a lower
/// bound on the run's total, checked before every pop.  When `entry_labels`
/// is non-null, every edge receives an (edge, label-at-first-enqueue)
/// record; re-enqueued edges append again, so the FIRST occurrence per
/// edge is the label the repair started from.
template <typename AdjT, typename MutableFn>
bool LocalHIndexRepair(
    const AdjT& adj, std::vector<SupportT>& labels,
    const std::vector<EdgeId>& frontier, MutableFn&& is_mutable,
    std::uint64_t budget, LocalPeelStats* stats, LocalPeelScratch* scratch,
    std::vector<std::pair<EdgeId, SupportT>>* entry_labels = nullptr) {
  std::vector<std::uint32_t>& queued = scratch->queued;
  std::vector<EdgeId>& work = scratch->work;
  if (queued.size() < labels.size()) queued.resize(labels.size(), 0);
  if (++scratch->epoch == 0) {  // wrapped: drop every stale stamp
    std::fill(queued.begin(), queued.end(), 0);
    scratch->epoch = 1;
  }
  const std::uint32_t epoch = scratch->epoch;
  work.assign(frontier.begin(), frontier.end());
  // Butterflies the queued edges with a nonzero label will still enumerate.
  std::uint64_t pending = 0;
  for (const EdgeId e : frontier) {
    queued[e] = epoch;
    if (labels[e] > 0) pending += adj.Support(e);
  }
  if (entry_labels != nullptr) {
    for (const EdgeId e : frontier) entry_labels->emplace_back(e, labels[e]);
  }

  std::vector<SupportT>& weights = scratch->weights;
  std::vector<EdgeId>& partners = scratch->partners;
  std::vector<std::uint32_t>& bucket = scratch->bucket;
  for (std::size_t head = 0; head < work.size(); ++head) {
    if (stats->enumerated_butterflies + pending > budget) return false;
    const EdgeId e = work[head];
    queued[e] = 0;  // epochs start at 1
    const SupportT cap = labels[e];
    if (cap == 0) continue;  // labels never drop below zero
    pending -= adj.Support(e);

    weights.clear();
    partners.clear();
    stats->enumerated_butterflies += internal::CollectButterflyWeights(
        adj, adj.EdgeUpper(e), adj.EdgeLower(e), scratch->closing_mark,
        [&](EdgeId f) { return labels[f]; }, cap, &weights, &partners);
    ++stats->recomputes;
    const SupportT h = HIndexOfWeights(weights, cap, &bucket);
    if (h < cap) {
      labels[e] = h;
      ++stats->label_drops;
      // Partners at or below h count e's butterflies with weight >= their
      // own level either way; only labels above h can be invalidated.
      for (const EdgeId g : partners) {
        if (labels[g] > h && is_mutable(g) && queued[g] != epoch) {
          queued[g] = epoch;
          work.push_back(g);
          pending += adj.Support(g);
          if (entry_labels != nullptr) {
            entry_labels->emplace_back(g, labels[g]);
          }
        }
      }
    }
  }
  return true;
}

}  // namespace bitruss

#endif  // BITRUSS_CORE_LOCAL_PEEL_H_
