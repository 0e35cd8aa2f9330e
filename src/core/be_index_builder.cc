#include "core/be_index_builder.h"

#include <algorithm>
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
            s += BloomK(edge_links[i].bloom) - 1;
          }
          sup[e] = s;
        }
      });
  return sup;
}

std::uint64_t BEIndex::MemoryBytes() const {
  return edge_offsets.size() * sizeof(std::uint64_t) +
         edge_links.size() * sizeof(Link) +
         bloom_offsets.size() * sizeof(std::uint32_t) +
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
// are numbered in the order the enumeration first meets their endpoint,
// and slot_edges holds each bloom's wedges as one run, in enumeration
// order.  A bloom is an (anchor, endpoint) pair, so blooms never span
// fragments and concatenating fragments in anchor order gives the same
// index at every chunking.
struct BuildFragment {
  std::vector<BEIndex::WedgeEdges> slot_edges;
  std::vector<SupportT> bloom_count;  // stored wedges per bloom
  std::vector<SupportT> bloom_base;

  // `walked` bounds the wedges the walk meets; a bloom takes two or more.
  // Reserved, the arrays never move, and pages past their ends stay unused.
  void Reserve(std::uint64_t walked) {
    slot_edges.reserve(walked);
    bloom_count.reserve(walked / 2);
    bloom_base.reserve(walked / 2);
  }
};

// An unfolded wedge of the current anchor, waiting for its slot (or to be
// dropped if its endpoint is met once).
struct AnchorWedge {
  BEIndex::WedgeEdges edges;
  VertexId endpoint;
};

// Per-thread enumeration scratch, reused across the thread's fragments.
// count and base are per endpoint rank and valid for one anchor; the
// anchor's placement restores them to 0, so reuse needs no
// re-initialization.
struct BuildScratch {
  std::vector<SupportT> count;  // the anchor's wedges per endpoint
  std::vector<SupportT> base;   // of those, folded into the bloom base
  std::vector<std::uint64_t> cursor;  // a bloom endpoint's next slot
  std::vector<VertexId> touched;      // endpoints, in first-seen order
  std::vector<AnchorWedge> wedges;    // the anchor's unfolded wedges

  // `widest` bounds any one anchor's wedges.
  void Prepare(VertexId n, std::uint64_t widest) {
    count.assign(n, 0);
    base.assign(n, 0);
    cursor.resize(n);
    touched.reserve(n);
    wedges.reserve(widest);
  }
};

// One walk per anchor buffers its unfolded wedges; the endpoints it met
// twice or more are its blooms, numbered in first-seen order, and each
// bloom's run is placed straight from the buffer after the fragment's
// earlier slots: a counting sort, stable in enumeration order.
template <typename AdjT>
void EnumerateFragment(const AdjT& a, VertexId anchor_begin,
                       VertexId anchor_end,
                       const std::vector<std::uint8_t>& assigned,
                       BuildScratch& scratch, BuildFragment* frag) {
  const bool has_assigned = !assigned.empty();
  std::vector<SupportT>& count = scratch.count;
  std::vector<SupportT>& base = scratch.base;
  std::vector<std::uint64_t>& cursor = scratch.cursor;
  std::vector<VertexId>& touched = scratch.touched;
  std::vector<AnchorWedge>& wedges = scratch.wedges;
  for (VertexId ur = anchor_begin; ur < anchor_end; ++ur) {
    internal::ForEachAnchorWedge(a, ur, [&](const Entry& v, const Entry& w) {
      if (count[w.rank]++ == 0) touched.push_back(w.rank);
      if (has_assigned && assigned[v.edge] && assigned[w.edge]) {
        // Both bitruss numbers known: fold into the bloom base count.
        ++base[w.rank];
        return;
      }
      wedges.push_back({{v.edge, w.edge}, w.rank});
    });
    std::uint64_t next = frag->slot_edges.size();
    for (const VertexId wr : touched) {
      const SupportT stored = count[wr] - base[wr];
      if (count[wr] < 2 || stored == 0) continue;
      cursor[wr] = next;
      next += stored;
      frag->bloom_count.push_back(stored);
      frag->bloom_base.push_back(base[wr]);
    }
    frag->slot_edges.resize(next);
    for (const AnchorWedge& wedge : wedges) {
      if (count[wedge.endpoint] < 2) continue;
      frag->slot_edges[cursor[wedge.endpoint]++] = wedge.edges;
    }
    for (const VertexId wr : touched) {
      count[wr] = 0;
      base[wr] = 0;
    }
    touched.clear();
    wedges.clear();
  }
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
  const std::vector<std::uint64_t> work = internal::AnchorWorkPrefix(a);
  const std::vector<VertexId> bounds = internal::AnchorChunkBounds(
      work, num_threads == 1 ? 1 : num_threads * kChunksPerThread);
  const unsigned num_chunks = static_cast<unsigned>(bounds.size() - 1);
  // All the enumeration writes is allocated here, sized from the work
  // bounds, so no worker allocates: freed memory stays resident in the
  // allocator arena of the thread that allocated it.
  std::vector<BuildFragment> fragments(num_chunks);
  for (unsigned c = 0; c < num_chunks; ++c) {
    fragments[c].Reserve(work[bounds[c + 1]] - work[bounds[c]]);
  }
  std::uint64_t widest = 0;
  for (VertexId r = 0; r < n; ++r) {
    widest = std::max(widest, work[r + 1] - work[r]);
  }
  std::vector<BuildScratch> scratch(num_threads);
  for (BuildScratch& s : scratch) s.Prepare(n, widest);
  pool.ParallelForChunks(
      0, num_chunks, num_chunks,
      [&](std::uint64_t, std::uint64_t, unsigned chunk, unsigned thread) {
        if (bounds[chunk] == bounds[chunk + 1]) return;
        EnumerateFragment(a, bounds[chunk], bounds[chunk + 1], assigned,
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
  index.bloom_offsets.assign(num_blooms + 1, 0);
  for (BloomId b = 0; b < num_blooms; ++b) {
    index.bloom_offsets[b + 1] = index.bloom_offsets[b] + index.bloom_live[b];
  }

  // Static per-edge links, filled bloom by bloom, so each edge's links
  // ascend by bloom.  edge_offsets[e] is edge e's fill cursor, so it ends
  // at edge e + 1's start; shifting the array one place right restores
  // the starts.
  index.edge_offsets.assign(num_edges + 1, 0);
  for (const BEIndex::WedgeEdges& pair : index.slot_edges) {
    ++index.edge_offsets[pair.e1 + 1];
    ++index.edge_offsets[pair.e2 + 1];
  }
  for (EdgeId e = 0; e < num_edges; ++e) {
    index.edge_offsets[e + 1] += index.edge_offsets[e];
  }
  index.edge_links.resize(2 * num_wedges);
  for (BloomId b = 0; b < num_blooms; ++b) {
    for (std::uint32_t slot = index.bloom_offsets[b];
         slot < index.bloom_offsets[b + 1]; ++slot) {
      const BEIndex::WedgeEdges& pair = index.slot_edges[slot];
      index.edge_links[index.edge_offsets[pair.e1]++] = {b, pair.e2};
      index.edge_links[index.edge_offsets[pair.e2]++] = {b, pair.e1};
    }
  }
  for (EdgeId e = num_edges; e > 0; --e) {
    index.edge_offsets[e] = index.edge_offsets[e - 1];
  }
  index.edge_offsets[0] = 0;
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
