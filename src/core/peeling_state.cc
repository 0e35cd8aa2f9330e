#include "core/peeling_state.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/metrics.h"

namespace bitruss {

SupportBuckets::SupportBuckets(const std::vector<SupportT>& support,
                               const std::vector<std::uint8_t>& skip) {
  const EdgeId m = static_cast<EdgeId>(support.size());
  next_.assign(m, kInvalidEdge);
  prev_.assign(m, kInvalidEdge);
  SupportT lo = std::numeric_limits<SupportT>::max();
  SupportT hi = 0;
  std::size_t queued = 0;
  for (EdgeId e = 0; e < m; ++e) {
    if (!skip.empty() && skip[e]) continue;
    lo = std::min(lo, support[e]);
    hi = std::max(hi, support[e]);
    ++queued;
  }
  if (queued == 0) return;
  // One allocation each: no window reaches past hi + kWindow, and the
  // overflow list only shrinks (a peel whose supports all fit the first
  // window never allocates it).
  head_.reserve(static_cast<std::size_t>(hi) + kWindow);
  window_end_ = std::uint64_t{lo} + kWindow;
  head_.resize(static_cast<std::size_t>(window_end_), kInvalidEdge);
  if (hi >= window_end_) overflow_.reserve(queued);
  for (EdgeId e = 0; e < m; ++e) {
    if (!skip.empty() && skip[e]) continue;
    if (support[e] < window_end_) {
      Link(e, support[e]);
    } else {
      overflow_.push_back(e);
    }
  }
  cursor_ = lo;
}

void SupportBuckets::Link(EdgeId e, SupportT level) {
  EdgeId& head = head_[level];
  prev_[e] = kInvalidEdge;
  next_[e] = head;
  if (head != kInvalidEdge) prev_[head] = e;
  head = e;
  ++linked_;
}

void SupportBuckets::Unlink(EdgeId e, SupportT level) {
  const EdgeId next = next_[e];
  const EdgeId prev = prev_[e];
  if (prev == kInvalidEdge) {
    head_[level] = next;
  } else {
    next_[prev] = next;
  }
  if (next != kInvalidEdge) prev_[next] = prev;
  --linked_;
}

void SupportBuckets::Move(EdgeId e, SupportT from, SupportT to) {
  if (to >= window_end_) return;
  // From at or above window_end_, e enters the window unlinked.
  if (from < window_end_) Unlink(e, from);
  Link(e, to);
  cursor_ = std::min(cursor_, to);
}

void SupportBuckets::Refill(const std::vector<SupportT>& support) {
  assert(support.size() == next_.size() && "refill needs every support");
  // An entry below the current window_end_ entered the window through
  // Move (and may since have been taken): drop it.
  SupportT lo = std::numeric_limits<SupportT>::max();
  std::size_t kept = 0;
  for (const EdgeId e : overflow_) {
    if (support[e] < window_end_) continue;
    overflow_[kept++] = e;
    lo = std::min(lo, support[e]);
  }
  overflow_.resize(kept);
  if (overflow_.empty()) return;

  window_end_ = std::uint64_t{lo} + kWindow;
  head_.resize(static_cast<std::size_t>(window_end_), kInvalidEdge);
  kept = 0;
  for (const EdgeId e : overflow_) {
    if (support[e] < window_end_) {
      Link(e, support[e]);
    } else {
      overflow_[kept++] = e;
    }
  }
  overflow_.resize(kept);
  cursor_ = lo;
}

SupportT SupportBuckets::TakeLowest(std::size_t limit,
                                    std::vector<EdgeId>* out,
                                    const std::vector<SupportT>& support) {
  out->clear();
  if (linked_ == 0) {
    if (overflow_.empty()) return cursor_;
    Refill(support);
    if (linked_ == 0) return cursor_;
  }
  while (head_[cursor_] == kInvalidEdge) ++cursor_;
  EdgeId e = head_[cursor_];
  while (e != kInvalidEdge && out->size() < limit) {
    out->push_back(e);
    e = next_[e];
  }
  head_[cursor_] = e;
  if (e != kInvalidEdge) prev_[e] = kInvalidEdge;
  linked_ -= out->size();
  return cursor_;
}

Peeler::Peeler(BEIndex index, std::vector<SupportT> support,
               std::vector<std::uint8_t> frozen, UpdateCounters* counters)
    : index_(std::move(index)),
      support_(std::move(support)),
      state_(frozen.empty() ? std::vector<std::uint8_t>(index_.num_edges)
                            : std::move(frozen)),
      counters_(counters),
      track_per_edge_(!counters->per_edge_updates.empty()),
      queue_(support_, state_) {}

void Peeler::ApplyUpdate(EdgeId e, SupportT delta) {
  if (state_[e] != kOpen) return;
  ++updates_;
  if (track_per_edge_) ++counters_->per_edge_updates[e];
  const SupportT old = support_[e];
  const SupportT now = old > delta ? old - delta : 0;
  if (now == old) return;
  support_[e] = now;
  queue_.Move(e, old, now);
}

void Peeler::RemoveEdgeWedges(EdgeId e) {
  for (std::uint64_t i = index_.edge_offsets[e]; i < index_.edge_offsets[e + 1];
       ++i) {
    const BEIndex::Link link = index_.edge_links[i];
    if (state_[link.twin] == kRemoved) continue;  // the wedge is dead
    const BloomId b = link.bloom;
    ApplyUpdate(link.twin, index_.BloomK(b) - 1);
    // Every other live wedge of b loses its butterfly with e's own, the
    // live slot whose pair holds e.
    const std::uint32_t begin = index_.bloom_offsets[b];
    const std::uint32_t last = begin + index_.bloom_live[b] - 1;
    std::uint32_t own = last;
    for (std::uint32_t slot = begin; slot <= last; ++slot) {
      const BEIndex::WedgeEdges& pair = index_.slot_edges[slot];
      if (pair.e1 == e || pair.e2 == e) {
        own = slot;
        continue;
      }
      ApplyUpdate(pair.e1, 1);
      ApplyUpdate(pair.e2, 1);
    }
    std::swap(index_.slot_edges[own], index_.slot_edges[last]);
    --index_.bloom_live[b];
  }
  state_[e] = kRemoved;
}

void Peeler::ProcessBatchBlooms(const std::vector<EdgeId>& batch) {
  if (bloom_killed_.empty()) bloom_killed_.assign(index_.NumBlooms(), 0);
  // Kill: count the t live wedges each bloom loses, a wedge with both
  // edges taken from its smaller edge only.
  for (const EdgeId e : batch) {
    for (std::uint64_t i = index_.edge_offsets[e];
         i < index_.edge_offsets[e + 1]; ++i) {
      const auto [b, twin] = index_.edge_links[i];
      if (state_[twin] == kRemoved || (state_[twin] == kTaken && twin < e)) {
        continue;
      }
      if (bloom_killed_[b]++ == 0) dirty_blooms_.push_back(b);
    }
  }
  // Scan: partition each dirty bloom's live prefix, keeping the wedges
  // without a taken edge in order.  A dead wedge's surviving twin loses
  // its k(B) - 1 butterflies in the bloom (k(B) from before the batch);
  // each survivor's edges lose one per dead wedge, t.
  for (const BloomId b : dirty_blooms_) {
    const SupportT t = bloom_killed_[b];
    bloom_killed_[b] = 0;
    const SupportT kb = index_.BloomK(b);
    const std::uint32_t begin = index_.bloom_offsets[b];
    const std::uint32_t end = begin + index_.bloom_live[b];
    std::uint32_t live = begin;
    for (std::uint32_t slot = begin; slot < end; ++slot) {
      const BEIndex::WedgeEdges pair = index_.slot_edges[slot];
      const bool e1_taken = state_[pair.e1] == kTaken;
      if (e1_taken || state_[pair.e2] == kTaken) {
        ApplyUpdate(e1_taken ? pair.e2 : pair.e1, kb - 1);  // the twin
        continue;
      }
      if (live != slot) index_.slot_edges[live] = pair;
      ++live;
      ApplyUpdate(pair.e1, t);
      ApplyUpdate(pair.e2, t);
    }
    assert(end - live == t);
    index_.bloom_live[b] = live - begin;
  }
  dirty_blooms_.clear();
  for (const EdgeId e : batch) state_[e] = kRemoved;
}

void Peeler::RemoveBatch(Mode mode, const std::vector<EdgeId>& batch) {
  if (mode == Mode::kBatchBlooms) {
    ProcessBatchBlooms(batch);
  } else {
    for (const EdgeId e : batch) RemoveEdgeWedges(e);
  }
}

// One "round" = one assignment step of the peel loop: a single edge in
// kSingle mode, a drained support level in the batch modes.  Accumulated
// locally and flushed once per Run so the hot loop touches no atomics.
void Peeler::RecordRounds(std::uint64_t rounds) {
  if (rounds == 0) return;
  static obs::Counter* const counter =
      obs::MetricsRegistry::Default().GetCounter(
          "bitruss_core_peel_rounds_total");
  counter->Inc(rounds);
}

}  // namespace bitruss
