#include "core/be_index_builder.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "butterfly/wedge_enumeration.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace bitruss {

namespace {

// Build telemetry, reported once per BuildCompressed call.
// The bytes gauge tracks the most recent build's footprint (a level, not a
// sum): compressed PC rounds overwrite it as the candidate shrinks.
struct IndexBuildMetrics {
  obs::Counter* builds;
  obs::Histogram* seconds;
  obs::Gauge* last_bytes;

  static const IndexBuildMetrics& Get() {
    static const IndexBuildMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Default();
      return IndexBuildMetrics{
          registry.GetCounter("bitruss_beindex_builds_total"),
          registry.GetHistogram("bitruss_beindex_build_seconds",
                                obs::ExponentialBuckets(1e-5, 2.0, 21)),
          registry.GetGauge("bitruss_beindex_last_build_bytes"),
      };
    }();
    return metrics;
  }
};

// Chunks per thread of a pooled pass: enough slack that the hub-heavy
// low-rank anchors spread across the pool.
constexpr unsigned kChunksPerThread = 8;

void RecordBuild(const BEIndex& index, double seconds) {
  const IndexBuildMetrics& metrics = IndexBuildMetrics::Get();
  metrics.builds->Inc();
  metrics.seconds->Observe(seconds);
  metrics.last_bytes->Set(static_cast<std::int64_t>(index.MemoryBytes()));
}

}  // namespace

void BEIndex::KillWedge(WedgeId w) {
  const BloomId b = wedge_bloom[w];
  const std::uint32_t slot = wedge_slot[w];
  const std::uint32_t last = bloom_offsets[b] + bloom_live[b] - 1;
  const WedgeId moved = bloom_slots[last];
  bloom_slots[slot] = moved;
  wedge_slot[moved] = slot;
  bloom_slots[last] = w;
  wedge_slot[w] = last;
  std::swap(slot_edges[slot], slot_edges[last]);
  --bloom_live[b];
  wedge_alive[w] = 0;
}

std::uint32_t BEIndex::EdgeLiveCount(EdgeId e) const {
  std::uint32_t live = 0;
  for (std::uint64_t i = edge_offsets[e]; i < edge_offsets[e + 1]; ++i) {
    live += wedge_alive[edge_wedges[i]];
  }
  return live;
}

std::vector<SupportT> BEIndex::ComputeSupports(ThreadPool* pool) const {
  std::vector<SupportT> sup(num_edges, 0);
  ThreadPool inline_pool(1);
  ThreadPool& run = pool != nullptr ? *pool : inline_pool;
  run.ParallelForChunks(
      0, num_edges, run.NumThreads() * kChunksPerThread,
      [&](std::uint64_t begin, std::uint64_t end, unsigned, unsigned) {
        for (std::uint64_t e = begin; e < end; ++e) {
          SupportT s = 0;
          for (std::uint64_t i = edge_offsets[e]; i < edge_offsets[e + 1];
               ++i) {
            const WedgeId w = edge_wedges[i];
            if (wedge_alive[w]) s += BloomK(wedge_bloom[w]) - 1;
          }
          sup[e] = s;
        }
      });
  return sup;
}

std::uint64_t BEIndex::MemoryBytes() const {
  return wedge_bloom.size() * sizeof(BloomId) +
         wedge_alive.size() * sizeof(std::uint8_t) +
         wedge_slot.size() * sizeof(std::uint32_t) +
         edge_offsets.size() * sizeof(std::uint64_t) +
         edge_wedges.size() * sizeof(WedgeId) +
         bloom_offsets.size() * sizeof(std::uint32_t) +
         bloom_slots.size() * sizeof(WedgeId) +
         slot_edges.size() * sizeof(WedgeEdges) +
         bloom_live.size() * sizeof(SupportT) +
         bloom_base.size() * sizeof(SupportT);
}

namespace {

using Entry = PriorityAdjacency::Entry;

// Adjacency restricted to included edges (BiT-PC candidate subgraphs).
struct FilteredAdj {
  std::vector<std::uint64_t> offsets;
  std::vector<Entry> entries;

  FilteredAdj(const PriorityAdjacency& adj,
              const std::vector<std::uint8_t>& included) {
    const VertexId n = adj.NumVertices();
    offsets.assign(n + 1, 0);
    for (VertexId r = 0; r < n; ++r) {
      std::uint64_t kept = 0;
      for (const Entry& entry : adj.Neighbors(r)) kept += included[entry.edge];
      offsets[r + 1] = offsets[r] + kept;
    }
    entries.resize(offsets[n]);
    std::uint64_t out = 0;
    for (VertexId r = 0; r < n; ++r) {
      for (const Entry& entry : adj.Neighbors(r)) {
        if (included[entry.edge]) entries[out++] = entry;
      }
    }
  }

  VertexId NumVertices() const {
    return static_cast<VertexId>(offsets.size() - 1);
  }
  PriorityAdjacency::Range Neighbors(VertexId r) const {
    return {entries.data() + offsets[r], entries.data() + offsets[r + 1]};
  }
  const Entry* FirstBelowPriority(VertexId r, VertexId bound) const {
    return internal::FirstRankAbove(Neighbors(r), bound);
  }
};

// One anchor range's share of the index, already in slot order: blooms
// are numbered in the order their first stored wedge is enumerated, and
// slot_edges holds each bloom's wedges as one run, in enumeration order.
// A bloom is an (anchor, endpoint) pair, so blooms never span fragments
// and concatenating fragments in anchor order gives the same index at
// every chunking.
struct BuildFragment {
  std::vector<BEIndex::WedgeEdges> slot_edges;
  std::vector<SupportT> bloom_count;  // stored wedges per bloom
  std::vector<SupportT> bloom_base;
};

// A stored wedge of the current anchor, waiting for its slot.  `bloom`
// counts from the anchor's first bloom.
struct AnchorWedge {
  BEIndex::WedgeEdges edges;
  BloomId bloom;
};

// Per-thread enumeration scratch, reused across the thread's fragments.
// pair_bloom/pair_base are valid for one anchor iteration and restored to
// kNoBloom/0 by the anchor-done hook, so reuse needs no re-initialization.
constexpr BloomId kNoBloom = static_cast<BloomId>(-1);
struct BuildScratch {
  internal::BloomScratch bloom;
  std::vector<BloomId> pair_bloom;
  std::vector<SupportT> pair_base;
  std::vector<AnchorWedge> anchor_wedges;
  std::vector<std::uint64_t> bloom_cursor;  // per anchor bloom

  void Prepare(VertexId n) {
    bloom.Prepare(n);
    pair_bloom.assign(n, kNoBloom);
    pair_base.assign(n, 0);
  }
  bool Prepared() const { return !pair_bloom.empty(); }
};

template <typename AdjT>
void EnumerateFragment(const AdjT& a, VertexId anchor_begin,
                       VertexId anchor_end,
                       const std::vector<std::uint8_t>& assigned,
                       BuildScratch& scratch, BuildFragment* frag) {
  const bool has_assigned = !assigned.empty();
  std::vector<BloomId>& pair_bloom = scratch.pair_bloom;
  std::vector<SupportT>& pair_base = scratch.pair_base;
  std::vector<AnchorWedge>& anchor_wedges = scratch.anchor_wedges;
  std::vector<std::uint64_t>& cursor = scratch.bloom_cursor;
  std::size_t first_bloom = 0;  // the current anchor's first bloom
  internal::ForEachBloomRange<true>(
      a, anchor_begin, anchor_end, scratch.bloom, [](VertexId, SupportT) {},
      [&](VertexId wr, SupportT, EdgeId e1, EdgeId e2) {
        if (has_assigned && assigned[e1] && assigned[e2]) {
          // Both bitruss numbers known: fold into the bloom base count.
          ++pair_base[wr];
          return;
        }
        BloomId b = pair_bloom[wr];
        if (b == kNoBloom) {
          b = static_cast<BloomId>(frag->bloom_count.size() - first_bloom);
          pair_bloom[wr] = b;
          frag->bloom_count.push_back(0);
          frag->bloom_base.push_back(0);
        }
        ++frag->bloom_count[first_bloom + b];
        anchor_wedges.push_back({{e1, e2}, b});
      },
      [&](const std::vector<VertexId>& touched) {
        for (const VertexId wr : touched) {
          if (pair_bloom[wr] != kNoBloom) {
            frag->bloom_base[first_bloom + pair_bloom[wr]] = pair_base[wr];
          }
          pair_base[wr] = 0;
          pair_bloom[wr] = kNoBloom;
        }
        // Place the anchor's wedges bloom by bloom after the fragment's
        // earlier slots: a counting sort, stable in enumeration order.
        std::uint64_t next = frag->slot_edges.size();
        cursor.clear();
        for (std::size_t b = first_bloom; b < frag->bloom_count.size(); ++b) {
          cursor.push_back(next);
          next += frag->bloom_count[b];
        }
        frag->slot_edges.resize(next);
        for (const AnchorWedge& wedge : anchor_wedges) {
          frag->slot_edges[cursor[wedge.bloom]++] = wedge.edges;
        }
        anchor_wedges.clear();
        first_bloom = frag->bloom_count.size();
      });
}

template <typename AdjT>
BEIndex BuildImpl(EdgeId num_edges, const AdjT& a,
                  const std::vector<std::uint8_t>& assigned,
                  ThreadPool& pool) {
  const VertexId n = a.NumVertices();

  // Fragments keyed by chunk index, enumerated under a shared cursor and
  // concatenated in chunk (= anchor) order, so the index does not depend
  // on which thread ran which chunk.  A 1-thread pool runs one chunk
  // inline, whose fragment becomes the index as is.
  const unsigned num_threads = pool.NumThreads();
  const unsigned num_chunks =
      num_threads == 1 ? 1 : num_threads * kChunksPerThread;
  std::vector<BuildFragment> fragments(num_chunks);
  std::vector<BuildScratch> scratch(num_threads);
  pool.ParallelForChunks(
      0, n, num_chunks,
      [&](std::uint64_t begin, std::uint64_t end, unsigned chunk,
          unsigned thread) {
        if (!scratch[thread].Prepared()) scratch[thread].Prepare(n);
        EnumerateFragment(a, static_cast<VertexId>(begin),
                          static_cast<VertexId>(end), assigned,
                          scratch[thread], &fragments[chunk]);
      });
  scratch.clear();

  std::uint64_t num_wedges = 0;
  std::uint64_t num_blooms = 0;
  for (const BuildFragment& frag : fragments) {
    num_wedges += frag.slot_edges.size();
    num_blooms += frag.bloom_count.size();
  }
  if (num_wedges > UINT32_MAX) {
    // Wedge count is bounded by sum min{d(u), d(v)}, which can exceed the
    // 2^32 edge-id cap on hub-heavy graphs; fail loudly, never truncate.
    throw std::length_error("BEIndex: wedge count exceeds 32-bit id space");
  }

  BEIndex index;
  index.num_edges = num_edges;
  index.slot_edges = std::move(fragments[0].slot_edges);
  index.bloom_live = std::move(fragments[0].bloom_count);
  index.bloom_base = std::move(fragments[0].bloom_base);
  index.slot_edges.reserve(num_wedges);
  index.bloom_live.reserve(num_blooms);
  index.bloom_base.reserve(num_blooms);
  for (std::size_t c = 1; c < fragments.size(); ++c) {
    BuildFragment& frag = fragments[c];
    index.slot_edges.insert(index.slot_edges.end(), frag.slot_edges.begin(),
                            frag.slot_edges.end());
    index.bloom_live.insert(index.bloom_live.end(), frag.bloom_count.begin(),
                            frag.bloom_count.end());
    index.bloom_base.insert(index.bloom_base.end(), frag.bloom_base.begin(),
                            frag.bloom_base.end());
    frag = BuildFragment();  // release as we go
  }

  // Every wedge starts in its own slot: wedge ids are slots.
  index.bloom_offsets.assign(num_blooms + 1, 0);
  index.wedge_bloom.resize(num_wedges);
  for (BloomId b = 0; b < num_blooms; ++b) {
    const std::uint32_t begin = index.bloom_offsets[b];
    const std::uint32_t end = begin + index.bloom_live[b];
    index.bloom_offsets[b + 1] = end;
    std::fill(index.wedge_bloom.begin() + begin,
              index.wedge_bloom.begin() + end, b);
  }
  index.bloom_slots.resize(num_wedges);
  std::iota(index.bloom_slots.begin(), index.bloom_slots.end(), WedgeId{0});
  index.wedge_slot = index.bloom_slots;
  index.wedge_alive.assign(num_wedges, 1);

  // Static per-edge CSR, filled in slot order, so each edge's wedges are
  // in increasing id order.
  index.edge_offsets.assign(num_edges + 1, 0);
  for (const BEIndex::WedgeEdges& pair : index.slot_edges) {
    ++index.edge_offsets[pair.e1 + 1];
    ++index.edge_offsets[pair.e2 + 1];
  }
  for (EdgeId e = 0; e < num_edges; ++e) {
    index.edge_offsets[e + 1] += index.edge_offsets[e];
  }
  index.edge_wedges.resize(2 * num_wedges);
  std::vector<std::uint64_t> cursor(index.edge_offsets.begin(),
                                    index.edge_offsets.end() - 1);
  for (std::uint64_t w = 0; w < num_wedges; ++w) {
    const BEIndex::WedgeEdges& pair = index.slot_edges[w];
    index.edge_wedges[cursor[pair.e1]++] = static_cast<WedgeId>(w);
    index.edge_wedges[cursor[pair.e2]++] = static_cast<WedgeId>(w);
  }
  return index;
}

}  // namespace

BEIndex BEIndexBuilder::Build(const BipartiteGraph& g,
                              const PriorityAdjacency& adj, ThreadPool* pool) {
  return BuildCompressed(g.NumEdges(), adj, {}, {}, pool);
}

BEIndex BEIndexBuilder::BuildCompressed(
    EdgeId num_edges, const PriorityAdjacency& adj,
    const std::vector<std::uint8_t>& assigned,
    const std::vector<std::uint8_t>& included, ThreadPool* pool) {
  Timer timer;
  ThreadPool inline_pool(1);
  ThreadPool& run = pool != nullptr ? *pool : inline_pool;
  BEIndex index = included.empty()
                      ? BuildImpl(num_edges, adj, assigned, run)
                      : BuildImpl(num_edges, FilteredAdj(adj, included),
                                  assigned, run);
  RecordBuild(index, timer.Seconds());
  return index;
}

}  // namespace bitruss
