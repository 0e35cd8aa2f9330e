#include "dynamic/incremental_bitruss.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "butterfly/wedge_enumeration.h"
#include "core/local_peel.h"
#include "obs/metrics.h"

namespace bitruss {

namespace {

// Process-wide dynamic-maintenance telemetry.  IncrementalBitruss itself
// is movable (it cannot hold atomics), so the registry instruments live
// here and every instance reports into the same family; per-instance
// numbers stay in IncrementalTotals / IncrementalUpdateStats.
struct DynamicMetrics {
  obs::Counter* inserts;
  obs::Counter* deletes;
  obs::Counter* local_repairs;
  obs::Counter* fallbacks;
  obs::Counter* deferred_edits;
  obs::Counter* phi_changes;
  obs::Histogram* repair_frontier_edges;
  obs::Histogram* repair_butterflies;
  obs::Histogram* bailout_butterflies;

  static const DynamicMetrics& Get() {
    static const DynamicMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Default();
      return DynamicMetrics{
          registry.GetCounter("bitruss_dynamic_inserts_total"),
          registry.GetCounter("bitruss_dynamic_deletes_total"),
          registry.GetCounter("bitruss_dynamic_local_repairs_total"),
          registry.GetCounter("bitruss_dynamic_fallbacks_total"),
          registry.GetCounter("bitruss_dynamic_deferred_edits_total"),
          registry.GetCounter("bitruss_dynamic_phi_changes_total"),
          registry.GetHistogram("bitruss_dynamic_repair_frontier_edges",
                                obs::ExponentialBuckets(1.0, 4.0, 10)),
          registry.GetHistogram("bitruss_dynamic_repair_butterflies",
                                obs::ExponentialBuckets(1.0, 4.0, 12)),
          registry.GetHistogram("bitruss_dynamic_bailout_butterflies",
                                obs::ExponentialBuckets(1.0, 4.0, 12)),
      };
    }();
    return metrics;
  }
};

// A touched report longer than NumSlots() / kTouchedShare collapses to
// all: past that, rewriting the listed slots saves little over copying
// every slot, and the list stays O(slots) however long it goes untaken.
constexpr EdgeId kTouchedShare = 4;

// A finite deadline could leave the initial phi (or a fallback) partial,
// poisoning every later repair; maintenance always runs to completion.
DecomposeOptions Untimed(DecomposeOptions options) {
  options.deadline = Deadline();
  return options;
}

}  // namespace

IncrementalBitruss::IncrementalBitruss(const BipartiteGraph& seed,
                                       IncrementalBitrussOptions options)
    : IncrementalBitruss(seed, Decompose(seed, Untimed(options.decompose)),
                         options) {}

// The seed's EdgeIds are its initial slot ids, so its phi and supports are
// indexed by slot as they stand, and the decomposition's one wedge
// enumeration also seeds the maintained supports.
IncrementalBitruss::IncrementalBitruss(const BipartiteGraph& seed,
                                       BitrussResult seeded,
                                       IncrementalBitrussOptions options)
    : IncrementalBitruss(DynamicBipartiteGraph(seed, seeded.original_support),
                         std::move(seeded.phi), std::move(options)) {}

IncrementalBitruss::IncrementalBitruss(DynamicBipartiteGraph graph,
                                       std::vector<SupportT> phi,
                                       IncrementalBitrussOptions options)
    : options_(std::move(options)),
      graph_(std::move(graph)),
      phi_(std::move(phi)) {
  if (phi_.size() != graph_.NumSlots()) {
    throw std::invalid_argument(
        "IncrementalBitruss: phi size does not match the slot table");
  }
  options_.decompose = Untimed(options_.decompose);
  stamp_.assign(graph_.NumSlots(), 0);
}

std::uint64_t IncrementalBitruss::EffectiveBudget() const {
  // UINT64_MAX asks for no fallback at all, so it is taken literally.
  if (options_.cascade_budget == std::numeric_limits<std::uint64_t>::max()) {
    return options_.cascade_budget;
  }
  // The recompute costs one wedge enumeration into the BE-Index plus a
  // peel whose support updates grow with the butterfly count.  A local
  // repair pays a few array reads per butterfly it enumerates (the walk
  // reads closing edges from a vertex mark), plus its per-edge h-index
  // work, so past half the butterfly count it is not expected to beat the
  // recompute and bails out early.  The floor keeps tiny graphs from
  // falling back over trivial cascades.
  const std::uint64_t half = graph_.NumButterflies() / 2;
  return std::min(options_.cascade_budget,
                  std::max<std::uint64_t>(1024, half));
}

void IncrementalBitruss::NewEpoch() {
  if (stamp_.size() < graph_.NumSlots()) {
    stamp_.resize(graph_.NumSlots(), 0);
  }
  if (++epoch_ == 0) {  // uint32 wrap: all stamps are stale, reset them
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
}

StatusOr<EdgeId> IncrementalBitruss::InsertEdge(VertexId upper_local,
                                                VertexId lower_local) {
  last_ = IncrementalUpdateStats{};
  StatusOr<EdgeId> result = Insert(upper_local, lower_local);
  FinishBatch();
  return result;
}

Status IncrementalBitruss::DeleteEdge(EdgeId slot) {
  last_ = IncrementalUpdateStats{};
  Status status = Delete(slot);
  FinishBatch();
  return status;
}

std::uint64_t IncrementalBitruss::ApplyBatch(
    const std::vector<EdgeUpdate>& updates) {
  last_ = IncrementalUpdateStats{};
  std::uint64_t failures = 0;
  for (const EdgeUpdate& update : updates) {
    if (!ApplyOne(update).ok()) ++failures;
  }
  FinishBatch();
  return failures;
}

Status IncrementalBitruss::ApplyOne(const EdgeUpdate& update) {
  if (update.kind == EdgeUpdate::Kind::kInsert) {
    return Insert(update.upper_local, update.lower_local).status();
  }
  return Delete(graph_.FindEdge(update.upper_local,
                                graph_.NumUpper() + update.lower_local));
}

StatusOr<EdgeId> IncrementalBitruss::Insert(VertexId upper_local,
                                            VertexId lower_local) {
  // After a bail-out the batch's recompute covers this edit, so the
  // support deltas need no report.
  const bool deferred = batch_fell_back_;
  StatusOr<EdgeId> result = graph_.InsertEdge(upper_local, lower_local,
                                              deferred ? nullptr : &delta_);
  if (!result.ok()) return result;
  const EdgeId slot = result.value();
  if (phi_.size() < graph_.NumSlots()) phi_.resize(graph_.NumSlots(), 0);
  phi_[slot] = 0;
  TouchEdit(slot, deferred);
  ++totals_.inserts;
  DynamicMetrics::Get().inserts->Inc();
  if (deferred) {
    DeferEdit();
    return result;
  }
  update_ = IncrementalUpdateStats{};
  entry_labels_.clear();

  bool local_ok;
  if (delta_.butterflies == 0) {
    // The new edge closed no butterfly: no support moved, so no phi moved,
    // and its own phi is 0.
    local_ok = true;
  } else if (options_.cascade_budget == 0) {
    local_ok = false;
  } else {
    local_ok = RepairInsert(slot);
  }
  FinishUpdate(local_ok);
  return result;
}

Status IncrementalBitruss::Delete(EdgeId slot) {
  if (!graph_.IsLive(slot)) {
    return graph_.DeleteEdge(slot);  // the graph's kNotFound contract
  }
  const SupportT k_star = phi_[slot];
  const bool deferred = batch_fell_back_;
  const Status status = graph_.DeleteEdge(slot, deferred ? nullptr : &delta_);
  if (!status.ok()) return status;
  phi_[slot] = 0;  // the slot is free until reused
  TouchEdit(slot, deferred);
  ++totals_.deletes;
  DynamicMetrics::Get().deletes->Inc();
  if (deferred) {
    DeferEdit();
    return status;
  }
  update_ = IncrementalUpdateStats{};
  entry_labels_.clear();

  bool local_ok;
  if (delta_.butterflies == 0 || k_star == 0) {
    // No butterfly lost means no support moved; and the deletion band is
    // empty when the deleted edge had phi 0 (every shrinking edge f had
    // phi(f) <= phi(e0), and phi cannot drop below 0).
    local_ok = true;
  } else if (options_.cascade_budget == 0) {
    local_ok = false;
  } else {
    local_ok = RepairDelete(k_star);
  }
  FinishUpdate(local_ok);
  return status;
}

bool IncrementalBitruss::RepairInsert(const EdgeId slot) {
  const std::uint64_t budget = EffectiveBudget();

  // Band bound: phi_new(e0) <= K = h-index over e0's butterflies of
  // min(partner supports) — a butterfly can carry level k only if all its
  // edges have support >= k.  Every edge phi can touch lies below K.  The
  // insert's own report already lists each butterfly's partners as one
  // triplet (see UpdateDelta), so no butterfly is enumerated again here.
  const SupportT own_support = graph_.Support(slot);
  const std::vector<EdgeId>& partners = delta_.touched;
  scratch_.weights.clear();
  for (std::size_t i = 0; i < partners.size(); i += 3) {
    scratch_.weights.push_back(std::min({graph_.Support(partners[i]),
                                         graph_.Support(partners[i + 1]),
                                         graph_.Support(partners[i + 2]),
                                         own_support}));
  }
  const SupportT band =
      HIndexOfWeights(scratch_.weights, own_support, &scratch_.bucket);
  if (band == 0) return true;  // nothing can rise, the new edge stays at 0

  // Affected-band expansion: butterfly-BFS from e0 and the support-delta
  // edges, pulling in only edges whose phi can still rise (old phi below
  // the band, support strictly above old phi).  Risen edges chain to the
  // seed through shared butterflies between risen edges, so the closure
  // of this walk covers everything the insert can change.
  //
  // Walking an edge enumerates exactly Support() butterflies.  The walk
  // below expands every frontier edge but e0 once, and the repair's first
  // pass walks every frontier edge once more (each starts with a label
  // above 0), so the update enumerates at least `at_least` butterflies:
  // once it passes the budget the update will fall back, and it does so
  // before paying for the rest.
  std::uint64_t at_least = own_support;
  NewEpoch();
  frontier_.clear();
  Stamp(slot);
  frontier_.push_back(slot);
  const auto admit = [&](EdgeId g) {
    if (!Stamped(g) && phi_[g] < band && graph_.Support(g) > phi_[g]) {
      Stamp(g);
      frontier_.push_back(g);
      at_least += 2 * std::uint64_t{graph_.Support(g)};
    }
  };
  for (const EdgeId f : partners) admit(f);
  // head starts past e0: its butterfly partners are exactly the delta
  // edges just seeded, so expanding it would only re-pay the enumeration.
  for (std::size_t head = 1; at_least <= budget && head < frontier_.size();
       ++head) {
    const EdgeId f = frontier_[head];
    internal::ForEachButterflyThroughEdge(
        graph_, graph_.EdgeUpper(f), graph_.EdgeLower(f),
        scratch_.closing_mark, [&](EdgeId e1, EdgeId e2, EdgeId e3) {
          ++update_.enumerated_butterflies;
          admit(e1);
          admit(e2);
          admit(e3);
        });
  }
  if (at_least > budget) return false;
  update_.frontier_edges = frontier_.size();

  // Warm-start labels: each band edge rises to at most min(support, K),
  // everything outside the band keeps its exact phi.  The repair iterates
  // the labels back down to the exact new phi (core/local_peel.h).
  for (const EdgeId f : frontier_) {
    entry_labels_.emplace_back(f, phi_[f]);
    phi_[f] = std::min(graph_.Support(f), band);
  }
  LocalPeelStats stats;
  const std::uint64_t used = update_.enumerated_butterflies;
  const bool completed = LocalHIndexRepair(
      graph_, phi_, frontier_, [&](EdgeId g) { return Stamped(g); },
      budget - std::min(budget, used), &stats, &scratch_);
  update_.enumerated_butterflies += stats.enumerated_butterflies;
  if (!completed) return false;
  for (const auto& [f, before] : entry_labels_) {
    if (phi_[f] != before) ++update_.phi_changes;
  }
  return true;
}

bool IncrementalBitruss::RepairDelete(const SupportT k_star) {
  // Deletion band: only edges with phi <= phi_old(e0) = k_star can drop
  // (and phi-0 edges have nowhere to go).  Labels are already an upper
  // bound — phi only shrinks under deletion — so the repair iterates the
  // current phi down directly, seeded by the support-delta edges.
  NewEpoch();
  frontier_.clear();
  for (const EdgeId f : delta_.touched) {
    if (!Stamped(f) && phi_[f] > 0 && phi_[f] <= k_star) {
      Stamp(f);
      frontier_.push_back(f);
    }
  }
  if (frontier_.empty()) return true;

  LocalPeelStats stats;
  const bool completed = LocalHIndexRepair(
      graph_, phi_, frontier_, [&](EdgeId g) { return phi_[g] <= k_star; },
      EffectiveBudget(), &stats, &scratch_, &entry_labels_);
  update_.enumerated_butterflies += stats.enumerated_butterflies;
  if (!completed) return false;
  // entry_labels_ may list an edge several times; the first occurrence
  // holds its pre-update phi.
  NewEpoch();
  update_.frontier_edges = 0;
  for (const auto& [f, before] : entry_labels_) {
    if (Stamped(f)) continue;
    Stamp(f);
    ++update_.frontier_edges;
    if (phi_[f] != before) ++update_.phi_changes;
  }
  return true;
}

void IncrementalBitruss::FinishUpdate(const bool local_ok) {
  const DynamicMetrics& metrics = DynamicMetrics::Get();
  if (local_ok) {
    // Every label the repair moved was recorded on entry.
    for (const auto& entry : entry_labels_) Touch(entry.first);
    ++totals_.local_repairs;
    metrics.local_repairs->Inc();
  } else {
    // Roll the part-way repaired labels back to their pre-update values
    // (reverse order: the first record per edge is the oldest), so the
    // batch's closing recompute counts phi_changes from the pre-update phi.
    for (auto it = entry_labels_.rbegin(); it != entry_labels_.rend(); ++it) {
      phi_[it->first] = it->second;
    }
    update_.fallback = true;
    ++totals_.fallbacks;
    metrics.fallbacks->Inc();
    metrics.bailout_butterflies->Observe(
        static_cast<double>(update_.enumerated_butterflies));
    batch_fell_back_ = true;
  }
  last_.fallback = last_.fallback || update_.fallback;
  last_.enumerated_butterflies += update_.enumerated_butterflies;
  last_.frontier_edges += update_.frontier_edges;
  last_.phi_changes += update_.phi_changes;
  totals_.enumerated_butterflies += update_.enumerated_butterflies;
  totals_.phi_changes += update_.phi_changes;
  metrics.phi_changes->Inc(update_.phi_changes);
  metrics.repair_frontier_edges->Observe(
      static_cast<double>(update_.frontier_edges));
  metrics.repair_butterflies->Observe(
      static_cast<double>(update_.enumerated_butterflies));
}

void IncrementalBitruss::DeferEdit() {
  ++totals_.deferred_edits;
  DynamicMetrics::Get().deferred_edits->Inc();
}

void IncrementalBitruss::FinishBatch() {
  if (!batch_fell_back_) return;
  Recompute();
  batch_fell_back_ = false;
}

void IncrementalBitruss::Recompute() {
  // Both vectors are slot-indexed, size NumSlots(), with 0 at free slots.
  std::vector<SupportT> phi = Decompose(graph_, options_.decompose).phi;
  std::uint64_t changes = 0;
  for (EdgeId slot = 0; slot < phi.size(); ++slot) {
    changes += phi_[slot] != phi[slot];
  }
  phi_ = std::move(phi);
  TouchAll();
  last_.phi_changes += changes;
  totals_.phi_changes += changes;
  DynamicMetrics::Get().phi_changes->Inc(changes);
}

void IncrementalBitruss::Touch(const EdgeId slot) {
  if (touched_.all) return;
  if (touched_mark_.size() < graph_.NumSlots()) {
    touched_mark_.resize(graph_.NumSlots(), 0);
  }
  if (touched_mark_[slot] != 0) return;
  if (touched_.slots.size() >= graph_.NumSlots() / kTouchedShare) {
    TouchAll();
    return;
  }
  touched_mark_[slot] = 1;
  touched_.slots.push_back(slot);
}

void IncrementalBitruss::TouchAll() {
  for (const EdgeId slot : touched_.slots) touched_mark_[slot] = 0;
  touched_.slots.clear();
  touched_.all = true;
}

void IncrementalBitruss::TouchEdit(const EdgeId slot, const bool deferred) {
  Touch(slot);
  // A deferred edit's partners are covered by the batch's recompute.
  if (deferred) return;
  for (const EdgeId partner : delta_.touched) Touch(partner);
}

void IncrementalBitruss::TakeTouchedSlots(TouchedSlots* out) {
  std::swap(*out, touched_);
  for (const EdgeId slot : out->slots) touched_mark_[slot] = 0;
  touched_.all = false;
  touched_.slots.clear();
}

std::vector<EdgeId> IncrementalBitruss::CompactSlots() {
  std::vector<EdgeId> mapping = graph_.CompactSlots();
  std::vector<SupportT> compacted(graph_.NumSlots(), 0);
  for (EdgeId old_slot = 0; old_slot < mapping.size(); ++old_slot) {
    if (mapping[old_slot] != kInvalidEdge) {
      compacted[mapping[old_slot]] = phi_[old_slot];
    }
  }
  phi_ = std::move(compacted);
  ResetSlotScratch();
  return mapping;
}

void IncrementalBitruss::ResetSlotScratch() {
  // Everything below is keyed by (or holds) slot ids, which a compaction
  // just renumbered.  Release the old-slot-table sizing rather than keep
  // capacity pinned to the pre-compaction high-water mark.
  stamp_.assign(graph_.NumSlots(), 0);
  stamp_.shrink_to_fit();
  epoch_ = 0;  // stamps are all 0; the next NewEpoch() opens epoch 1
  frontier_.clear();
  frontier_.shrink_to_fit();
  entry_labels_.clear();
  entry_labels_.shrink_to_fit();
  delta_.Clear();
  delta_.touched.shrink_to_fit();
  TouchAll();
  touched_mark_.assign(graph_.NumSlots(), 0);
  touched_mark_.shrink_to_fit();
  scratch_ = LocalPeelScratch{};
  update_ = IncrementalUpdateStats{};
  last_ = IncrementalUpdateStats{};
}

}  // namespace bitruss
