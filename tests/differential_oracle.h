// The one differential oracle of the dynamic, serving and durability
// suites: one seeded update stream (MakeStream), one truth after any prefix
// of it (Oracle::At: a DynamicBipartiteGraph replay at the writer's
// compaction cadence, no-ops counted as failures, with supports, butterfly
// total and phi from an independent CountEdgeSupports +
// CountTotalButterflies + Decompose of its Snapshot()), and one comparison
// of any slot view against that truth (ExpectMatches): a PhiSnapshot as a
// service publishes it — its arrays, its carried phi_counts and
// phi_block_max, and its PhiHistogram()/TopKPhi() answers — or the slot
// table of an IncrementalBitruss or of a bare DynamicBipartiteGraph (which
// has no phi).

#ifndef BITRUSS_TESTS_DIFFERENTIAL_ORACLE_H_
#define BITRUSS_TESTS_DIFFERENTIAL_ORACLE_H_

#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "core/decompose.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_bitruss.h"
#include "graph/bipartite_graph.h"
#include "serve/bitruss_service.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace bitruss {
namespace differential {

// Scoped flat temp dir: every test path (including ASSERT early exits)
// cleans up.  Removal unlinks plain files only, which is all the WAL,
// snapshot and event-log writers create.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/bitruss_test_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr) << std::strerror(errno);
    if (dir != nullptr) path = dir;
  }
  ~TempDir() {
    if (DIR* d = ::opendir(path.c_str())) {
      while (dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path;
};

// One endpoint-addressed update on a bare graph, under
// IncrementalBitruss::ApplyBatch's status contract.
inline Status ApplyTo(DynamicBipartiteGraph& graph, const EdgeUpdate& op) {
  if (op.kind == EdgeUpdate::Kind::kInsert) {
    return graph.InsertEdge(op.upper_local, op.lower_local).status();
  }
  return graph.DeleteEdge(
      graph.FindEdge(op.upper_local, graph.NumUpper() + op.lower_local));
}

// Deterministic mixed stream, simulated while generating: a delete names
// an edge live at its position, an insert one that is absent.  Each draw
// is a delete with probability `delete_share` while any edge is live.
// With `with_noops`, one draw in ten is instead a duplicate insert of a
// live edge or a delete of a missing one.
inline std::vector<EdgeUpdate> MakeStream(const BipartiteGraph& seed,
                                          int updates, std::uint64_t rng_seed,
                                          bool with_noops = false,
                                          double delete_share = 0.5) {
  using Kind = EdgeUpdate::Kind;
  DynamicBipartiteGraph sim(seed);
  Rng rng(rng_seed);
  std::vector<std::pair<VertexId, VertexId>> live;  // side-local pairs
  for (EdgeId slot = 0; slot < sim.NumSlots(); ++slot) {
    if (sim.IsLive(slot)) {
      live.emplace_back(sim.EdgeUpper(slot),
                        sim.EdgeLower(slot) - sim.NumUpper());
    }
  }
  std::vector<EdgeUpdate> ops;
  while (static_cast<int>(ops.size()) < updates) {
    const bool noop = with_noops && rng.Below(10) == 0;
    if (!live.empty() && rng.NextBool(delete_share)) {
      const std::size_t pick = rng.Below(live.size());
      const auto [u, l] = live[pick];
      ops.push_back({noop ? Kind::kInsert : Kind::kDelete, u, l});
      if (noop) continue;
      EXPECT_TRUE(sim.DeleteEdge(sim.FindEdge(u, sim.NumUpper() + l)).ok());
      live[pick] = live.back();
      live.pop_back();
    } else {
      const auto u = static_cast<VertexId>(rng.Below(sim.NumUpper()));
      const auto l = static_cast<VertexId>(rng.Below(sim.NumLower()));
      if (sim.FindEdge(u, sim.NumUpper() + l) != kInvalidEdge) continue;
      ops.push_back({noop ? Kind::kDelete : Kind::kInsert, u, l});
      if (noop) continue;
      EXPECT_TRUE(sim.InsertEdge(u, l).ok());
      live.emplace_back(u, l);
    }
  }
  return ops;
}

// The exact state after a stream prefix, by the replay's slots.
struct Truth : PhiSnapshot {
  std::uint64_t failures = 0;  // no-ops in the prefix
  DynamicGraphState state;     // the replay's slot table
};

// Truth at any prefix of `ops`, compacting the replay after every
// `compact_every` ops (0 = never) as the writer does.  Answers are cached:
// At() of a count already computed only reads, so threads may share an
// oracle once its counts are prefetched.  The replay moves forward and
// restarts from the seed when asked for a prefix it has passed.
class Oracle {
 public:
  Oracle(const BipartiteGraph& seed, const std::vector<EdgeUpdate>& ops,
         std::uint64_t compact_every = 0)
      : seed_(seed), ops_(ops), compact_every_(compact_every), replay_(seed) {}

  const Truth& At(std::uint64_t count) {
    const auto cached = cache_.find(count);
    if (cached != cache_.end()) return cached->second;
    Prefetch({count});
    return cache_.at(count);
  }

  // Truth at each of `counts`, replayed in order and recounted on four
  // threads.
  void Prefetch(const std::vector<std::uint64_t>& counts) {
    std::vector<std::pair<Truth*, GraphSnapshot>> work;
    for (const std::uint64_t count : counts) {
      if (cache_.count(count) != 0) continue;
      if (count < applied_) {
        replay_ = DynamicBipartiteGraph(seed_);
        applied_ = failures_ = 0;
      }
      for (; applied_ < count; ++applied_) {
        if (!ApplyTo(replay_, ops_[applied_]).ok()) ++failures_;
        if (compact_every_ != 0 && (applied_ + 1) % compact_every_ == 0) {
          replay_.CompactSlots();
        }
      }
      Truth& truth = cache_[count];
      truth.failures = failures_;
      truth.num_slots = replay_.NumSlots();
      truth.state = replay_.ExportState();
      work.emplace_back(&truth, replay_.Snapshot());
    }
    ThreadPool pool(work.size() > 1 ? 4 : 1);
    pool.ParallelForChunks(
        0, work.size(), static_cast<unsigned>(work.size()),
        [&work](std::uint64_t i, std::uint64_t, unsigned, unsigned) {
          Recount(work[i].second, work[i].first);
        });
  }

 private:
  const BipartiteGraph& seed_;
  const std::vector<EdgeUpdate>& ops_;
  const std::uint64_t compact_every_;
  DynamicBipartiteGraph replay_;
  std::uint64_t applied_ = 0;
  std::uint64_t failures_ = 0;
  std::map<std::uint64_t, Truth> cache_;

  static void Recount(const GraphSnapshot& snapshot, Truth* truth) {
    const std::vector<SupportT> supports = CountEdgeSupports(snapshot.graph);
    const std::vector<SupportT> phi = Decompose(snapshot.graph).phi;
    truth->num_edges = snapshot.graph.NumEdges();
    truth->num_butterflies = CountTotalButterflies(snapshot.graph);
    truth->live.assign(truth->num_slots, 0);
    truth->support.assign(truth->num_slots, 0);
    truth->phi.assign(truth->num_slots, 0);
    truth->phi_counts.clear();
    constexpr EdgeId kBlock = PhiSnapshot::kPhiBlock;
    truth->phi_block_max.assign((truth->num_slots + kBlock - 1) / kBlock, 0);
    for (EdgeId e = 0; e < snapshot.graph.NumEdges(); ++e) {
      const EdgeId slot = snapshot.slot_of_edge[e];
      truth->live[slot] = 1;
      truth->support[slot] = supports[e];
      truth->phi[slot] = phi[e];
      if (phi[e] >= truth->phi_counts.size()) {
        truth->phi_counts.resize(phi[e] + std::size_t{1}, 0);
      }
      ++truth->phi_counts[phi[e]];
      SupportT& block_max = truth->phi_block_max[slot / kBlock];
      block_max = std::max(block_max, phi[e]);
    }
  }
};

// Every live slot of `snap` as (slot, phi), sorted by (phi desc, slot
// asc): TopKPhi(k) is its first k entries.
inline std::vector<std::pair<EdgeId, SupportT>> RankLiveSlots(
    const PhiSnapshot& snap) {
  std::vector<std::pair<EdgeId, SupportT>> ranked;
  for (EdgeId slot = 0; slot < snap.live.size(); ++slot) {
    if (snap.live[slot] != 0) ranked.emplace_back(slot, snap.phi[slot]);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const std::pair<EdgeId, SupportT>& a,
               const std::pair<EdgeId, SupportT>& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  return ranked;
}

// The (phi, live-edge count) pairs of `snap`, by a scan of its arrays.
inline std::vector<std::pair<SupportT, std::uint64_t>> CountLivePhi(
    const PhiSnapshot& snap) {
  std::map<SupportT, std::uint64_t> levels;
  for (EdgeId slot = 0; slot < snap.live.size(); ++slot) {
    if (snap.live[slot] != 0) ++levels[snap.phi[slot]];
  }
  return {levels.begin(), levels.end()};
}

// TopKPhi(k) of `view` against the first k of `ranked`.
inline void ExpectTopK(const PhiSnapshot& view,
                       const std::vector<std::pair<EdgeId, SupportT>>& ranked,
                       std::size_t k) {
  const auto end = ranked.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(k, ranked.size()));
  const std::vector<std::pair<EdgeId, SupportT>> expected(ranked.begin(), end);
  ASSERT_EQ(view.TopKPhi(k), expected) << "k " << k;
}

enum class Match {
  kSlots,     // slot for slot: the view numbers slots as the replay does
  kMultiset,  // phi histogram only: a crash hid the compaction point
};

inline void ExpectMatches(const PhiSnapshot& view, const Truth& truth,
                          Match match = Match::kSlots) {
  ASSERT_EQ(view.num_edges, truth.num_edges);
  ASSERT_EQ(view.num_butterflies, truth.num_butterflies);
  if (match == Match::kMultiset) {
    ASSERT_EQ(view.PhiHistogram(), truth.PhiHistogram());
    return;
  }
  ASSERT_EQ(view.live, truth.live);
  ASSERT_EQ(view.support, truth.support);
  ASSERT_EQ(view.phi, truth.phi);
  // The carried summaries, against a brute-force scan of the truth.
  ASSERT_EQ(view.phi_counts, truth.phi_counts);
  ASSERT_EQ(view.phi_block_max, truth.phi_block_max);
  ASSERT_EQ(view.PhiHistogram(), CountLivePhi(truth));
  const std::vector<std::pair<EdgeId, SupportT>> ranked = RankLiveSlots(truth);
  for (const std::size_t k :
       {std::size_t{0}, std::size_t{1}, std::size_t{8},
        std::size_t{truth.num_edges}, std::size_t{truth.num_edges} + 1}) {
    ASSERT_NO_FATAL_FAILURE(ExpectTopK(view, ranked, k));
  }
}

// Slot for slot down to each slot's endpoints and the order of the
// free-slot stack, which a snapshot does not show.
inline void ExpectMatches(const DynamicBipartiteGraph& graph,
                          const Truth& truth) {
  ASSERT_EQ(graph.NumEdges(), truth.num_edges);
  ASSERT_EQ(graph.NumButterflies(), truth.num_butterflies);
  const DynamicGraphState state = graph.ExportState();
  ASSERT_EQ(state.upper, truth.state.upper);
  ASSERT_EQ(state.lower, truth.state.lower);
  ASSERT_EQ(state.support, truth.support);
  ASSERT_EQ(state.free_slots, truth.state.free_slots);
}

inline void ExpectMatches(const IncrementalBitruss& inc, const Truth& truth) {
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(inc.Graph(), truth));
  ASSERT_EQ(inc.PhiBySlot(), truth.phi);
}

}  // namespace differential
}  // namespace bitruss

#endif  // BITRUSS_TESTS_DIFFERENTIAL_ORACLE_H_
