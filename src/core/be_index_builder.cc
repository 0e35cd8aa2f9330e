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
  const auto compute_range = [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t e = begin; e < end; ++e) {
      SupportT s = 0;
      for (std::uint64_t i = edge_offsets[e]; i < edge_offsets[e + 1]; ++i) {
        const WedgeId w = edge_wedges[i];
        if (wedge_alive[w]) s += BloomK(wedge_bloom[w]) - 1;
      }
      sup[e] = s;
    }
  };
  if (pool == nullptr || pool->NumThreads() <= 1) {
    compute_range(0, num_edges);
  } else {
    pool->ParallelForChunks(
        0, num_edges, pool->NumThreads() * 8,
        [&](std::uint64_t begin, std::uint64_t end, unsigned, unsigned) {
          compute_range(begin, end);
        });
  }
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

// One anchor range's share of the enumeration.  Bloom ids are local to the
// fragment; a bloom is an (anchor, endpoint) pair, so blooms never span
// fragments and concatenating fragments in anchor order reproduces the
// sequential bloom/wedge numbering exactly.
struct BuildFragment {
  std::vector<BEIndex::WedgeEdges> wedge_edges;  // by wedge id
  std::vector<BloomId> wedge_bloom;              // fragment-local ids
  std::vector<SupportT> bloom_count;             // stored wedges per bloom
  std::vector<SupportT> bloom_base;
};

// Per-thread enumeration scratch, reused across the thread's fragments.
// pair_bloom/pair_base are valid for one anchor iteration and restored to
// kNoBloom/0 by the anchor-done hook, so reuse needs no re-initialization.
constexpr BloomId kNoBloom = static_cast<BloomId>(-1);
struct BuildScratch {
  internal::BloomScratch bloom;
  std::vector<BloomId> pair_bloom;
  std::vector<SupportT> pair_base;

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
          b = static_cast<BloomId>(frag->bloom_count.size());
          pair_bloom[wr] = b;
          frag->bloom_count.push_back(0);
          frag->bloom_base.push_back(0);
        }
        ++frag->bloom_count[b];
        frag->wedge_edges.push_back({e1, e2});
        frag->wedge_bloom.push_back(b);
      },
      [&](const std::vector<VertexId>& touched) {
        for (const VertexId wr : touched) {
          if (pair_bloom[wr] != kNoBloom) {
            frag->bloom_base[pair_bloom[wr]] = pair_base[wr];
          }
          pair_base[wr] = 0;
          pair_bloom[wr] = kNoBloom;
        }
      });
}

template <typename AdjT>
BEIndex BuildImpl(EdgeId num_edges, const AdjT& a,
                  const std::vector<std::uint8_t>& assigned,
                  ThreadPool* pool) {
  BEIndex index;
  index.num_edges = num_edges;
  const VertexId n = a.NumVertices();

  // Wedge pairs by wedge id; permuted into slot order (slot_edges) last.
  std::vector<BEIndex::WedgeEdges> pairs;
  std::vector<SupportT> bloom_count;  // stored wedges per bloom

  if (pool == nullptr || pool->NumThreads() <= 1) {
    BuildScratch scratch;
    scratch.Prepare(n);
    BuildFragment frag;
    EnumerateFragment(a, 0, n, assigned, scratch, &frag);
    pairs = std::move(frag.wedge_edges);
    index.wedge_bloom = std::move(frag.wedge_bloom);
    index.bloom_base = std::move(frag.bloom_base);
    bloom_count = std::move(frag.bloom_count);
  } else {
    // Fragments keyed by chunk index, enumerated under a shared cursor and
    // concatenated in chunk (= anchor) order: byte-identical to the
    // sequential build no matter which thread ran which chunk.
    const unsigned num_threads = pool->NumThreads();
    const unsigned num_chunks =
        n == 0 ? 1
               : static_cast<unsigned>(std::min<std::uint64_t>(
                     static_cast<std::uint64_t>(num_threads) * 8, n));
    std::vector<BuildFragment> fragments(num_chunks);
    std::vector<BuildScratch> scratch(num_threads);
    pool->ParallelForChunks(
        0, n, num_chunks,
        [&](std::uint64_t begin, std::uint64_t end, unsigned chunk,
            unsigned thread) {
          if (!scratch[thread].Prepared()) scratch[thread].Prepare(n);
          EnumerateFragment(a, static_cast<VertexId>(begin),
                            static_cast<VertexId>(end), assigned,
                            scratch[thread], &fragments[chunk]);
        });

    std::uint64_t total_wedges = 0;
    std::uint64_t total_blooms = 0;
    for (const BuildFragment& frag : fragments) {
      total_wedges += frag.wedge_edges.size();
      total_blooms += frag.bloom_count.size();
    }
    pairs.reserve(total_wedges);
    index.wedge_bloom.reserve(total_wedges);
    index.bloom_base.reserve(total_blooms);
    bloom_count.reserve(total_blooms);
    for (BuildFragment& frag : fragments) {
      const BloomId bloom_offset = static_cast<BloomId>(bloom_count.size());
      pairs.insert(pairs.end(), frag.wedge_edges.begin(),
                   frag.wedge_edges.end());
      for (const BloomId b : frag.wedge_bloom) {
        index.wedge_bloom.push_back(b + bloom_offset);
      }
      index.bloom_base.insert(index.bloom_base.end(), frag.bloom_base.begin(),
                              frag.bloom_base.end());
      bloom_count.insert(bloom_count.end(), frag.bloom_count.begin(),
                         frag.bloom_count.end());
      frag = BuildFragment();  // release as we go; peak stays ~2x one copy
    }
  }

  const std::uint64_t num_wedges = pairs.size();
  if (num_wedges > UINT32_MAX) {
    // Wedge count is bounded by sum min{d(u), d(v)}, which can exceed the
    // 2^32 edge-id cap on hub-heavy graphs; fail loudly, never truncate.
    throw std::length_error("BEIndex: wedge count exceeds 32-bit id space");
  }
  const BloomId num_blooms = static_cast<BloomId>(bloom_count.size());
  index.bloom_live.assign(bloom_count.begin(), bloom_count.end());

  // Bloom slot segments, filled in wedge-id order; the same pass counts
  // each edge's wedges for the per-edge CSR.
  index.bloom_offsets.assign(num_blooms + 1, 0);
  for (BloomId b = 0; b < num_blooms; ++b) {
    index.bloom_offsets[b + 1] = index.bloom_offsets[b] + bloom_count[b];
  }
  index.bloom_slots.resize(num_wedges);
  index.wedge_slot.resize(num_wedges);
  index.edge_offsets.assign(num_edges + 1, 0);
  {
    std::vector<std::uint32_t> cursor(index.bloom_offsets.begin(),
                                      index.bloom_offsets.end() - 1);
    for (std::uint64_t w = 0; w < num_wedges; ++w) {
      const std::uint32_t slot = cursor[index.wedge_bloom[w]]++;
      index.bloom_slots[slot] = static_cast<WedgeId>(w);
      index.wedge_slot[w] = slot;
      ++index.edge_offsets[pairs[w].e1 + 1];
      ++index.edge_offsets[pairs[w].e2 + 1];
    }
  }

  // Static per-edge CSR, each edge's wedges in increasing id order.
  for (EdgeId e = 0; e < num_edges; ++e) {
    index.edge_offsets[e + 1] += index.edge_offsets[e];
  }
  index.edge_wedges.resize(2 * num_wedges);
  {
    std::vector<std::uint64_t> cursor(index.edge_offsets.begin(),
                                      index.edge_offsets.end() - 1);
    for (std::uint64_t w = 0; w < num_wedges; ++w) {
      index.edge_wedges[cursor[pairs[w].e1]++] = static_cast<WedgeId>(w);
      index.edge_wedges[cursor[pairs[w].e2]++] = static_cast<WedgeId>(w);
    }
  }

  // Permute the pairs into slot order in place, so the index never holds
  // a second copy: follow each cycle of w -> wedge_slot[w], carrying the
  // pair each step displaces.  wedge_alive marks the wedges whose pair has
  // been carried, and ends all ones.
  index.wedge_alive.assign(num_wedges, 0);
  for (std::uint64_t start = 0; start < num_wedges; ++start) {
    if (index.wedge_alive[start]) continue;
    index.wedge_alive[start] = 1;
    BEIndex::WedgeEdges carry = pairs[start];
    for (std::uint32_t w = index.wedge_slot[start]; w != start;
         w = index.wedge_slot[w]) {
      std::swap(carry, pairs[w]);  // pairs[w] was still wedge w's own pair
      index.wedge_alive[w] = 1;
    }
    pairs[start] = carry;
  }
  index.slot_edges = std::move(pairs);
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
  BEIndex index = included.empty()
                      ? BuildImpl(num_edges, adj, assigned, pool)
                      : BuildImpl(num_edges, FilteredAdj(adj, included),
                                  assigned, pool);
  RecordBuild(index, timer.Seconds());
  return index;
}

}  // namespace bitruss
