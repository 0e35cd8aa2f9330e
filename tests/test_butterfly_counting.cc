// Golden tests for butterfly counting on hand-computed graphs, plus the
// vertex priority order and priority adjacency against sorted references,
// the BE-Index support identity (Lemma 4), the two structures the peel
// relies on (KillWedge's slot layout and the SupportBuckets queue) and
// VerifyBitrussNumbers itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "core/be_index_builder.h"
#include "core/peeling_state.h"
#include "core/verify.h"
#include "dynamic/dynamic_graph.h"
#include "gen/chung_lu.h"
#include "gen/random_bipartite.h"
#include "graph/bipartite_graph.h"
#include "graph/vertex_priority.h"
#include "util/random.h"

namespace bitruss {
namespace {

BipartiteGraph CompleteBipartite(VertexId a, VertexId b) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId l = 0; l < b; ++l) edges.emplace_back(u, l);
  }
  return BipartiteGraph(a, b, std::move(edges));
}

TEST(ButterflyCounting, CompleteBipartiteK33) {
  // K(3,3): C(3,2)^2 = 9 butterflies; each edge (u,v) is in
  // (d(u)-1)*(d(v)-1) = 4 of them.
  const BipartiteGraph g = CompleteBipartite(3, 3);
  EXPECT_EQ(CountTotalButterflies(g), 9u);
  const std::vector<SupportT> sup = CountEdgeSupports(g);
  ASSERT_EQ(sup.size(), 9u);
  for (const SupportT s : sup) EXPECT_EQ(s, 4u);
}

TEST(ButterflyCounting, CompleteBipartiteK22) {
  const BipartiteGraph g = CompleteBipartite(2, 2);
  EXPECT_EQ(CountTotalButterflies(g), 1u);
  for (const SupportT s : CountEdgeSupports(g)) EXPECT_EQ(s, 1u);
}

TEST(ButterflyCounting, PathHasNoButterflies) {
  // u0 - l0 - u1 - l1: three edges, no (2,2)-biclique.
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  EXPECT_EQ(CountTotalButterflies(g), 0u);
  for (const SupportT s : CountEdgeSupports(g)) EXPECT_EQ(s, 0u);
}

TEST(ButterflyCounting, StarHasNoButterflies) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId l = 0; l < 6; ++l) edges.emplace_back(0, l);
  const BipartiteGraph g(1, 6, std::move(edges));
  EXPECT_EQ(CountTotalButterflies(g), 0u);
  for (const SupportT s : CountEdgeSupports(g)) EXPECT_EQ(s, 0u);
}

TEST(ButterflyCounting, EmptyGraph) {
  const BipartiteGraph g(0, 0, {});
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(CountTotalButterflies(g), 0u);
  EXPECT_TRUE(CountEdgeSupports(g).empty());
}

TEST(ButterflyCounting, TwoButterfliesSharingAnEdge) {
  // K(3,2) has C(3,2) = 3 butterflies and every edge is in exactly 2.
  const BipartiteGraph g = CompleteBipartite(3, 2);
  EXPECT_EQ(CountTotalButterflies(g), 3u);
  for (const SupportT s : CountEdgeSupports(g)) EXPECT_EQ(s, 2u);
}

TEST(ButterflyCounting, PriorityRuleDoesNotChangeCounts) {
  const BipartiteGraph g = GenerateUniformBipartite(30, 25, 180, 7);
  const VertexPriority by_degree =
      VertexPriority::Compute(g, PriorityRule::kDegreeThenId);
  const VertexPriority by_id = VertexPriority::Compute(g, PriorityRule::kIdOnly);
  const PriorityAdjacency adj_degree(g, by_degree);
  const PriorityAdjacency adj_id(g, by_id);
  EXPECT_EQ(CountEdgeSupports(g.NumEdges(), adj_degree),
            CountEdgeSupports(g.NumEdges(), adj_id));
  EXPECT_EQ(CountTotalButterflies(adj_degree), CountTotalButterflies(adj_id));
}

// VertexPriority against std::sort under Definition 7's comparator (or
// plain descending ids), and every PriorityAdjacency list against the
// rank-sorted neighbour list, under both rules.
template <typename GraphT>
void ExpectMatchesSortedReference(const GraphT& g) {
  const VertexId n = g.NumVertices();
  for (const PriorityRule rule :
       {PriorityRule::kDegreeThenId, PriorityRule::kIdOnly}) {
    SCOPED_TRACE(rule == PriorityRule::kIdOnly ? "kIdOnly" : "kDegreeThenId");
    std::vector<VertexId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      if (rule == PriorityRule::kDegreeThenId && g.Degree(a) != g.Degree(b)) {
        return g.Degree(a) > g.Degree(b);
      }
      return a > b;
    });
    const VertexPriority priority = VertexPriority::Compute(g, rule);
    ASSERT_EQ(priority.NumVertices(), n);
    for (VertexId r = 0; r < n; ++r) {
      ASSERT_EQ(priority.VertexAtRank(r), order[r]) << "rank " << r;
      ASSERT_EQ(priority.Rank(order[r]), r) << "rank " << r;
    }

    const PriorityAdjacency adj(g, priority);
    ASSERT_EQ(adj.NumVertices(), n);
    for (VertexId r = 0; r < n; ++r) {
      std::vector<std::pair<VertexId, EdgeId>> expected;
      for (const auto& [neighbor, edge] : g.Neighbors(order[r])) {
        expected.emplace_back(priority.Rank(neighbor), edge);
      }
      std::sort(expected.begin(), expected.end());
      std::vector<std::pair<VertexId, EdgeId>> listed;
      for (const PriorityAdjacency::Entry& entry : adj.Neighbors(r)) {
        listed.emplace_back(entry.rank, entry.edge);
      }
      ASSERT_EQ(listed, expected) << "rank " << r;
      for (std::size_t i = 1; i < listed.size(); ++i) {
        ASSERT_LT(listed[i - 1].first, listed[i].first) << "rank " << r;
      }
    }
  }
}

TEST(VertexPriority, MatchesSortedReferenceOnCsrGraphs) {
  // Sparse: most vertices share degree 0, 1 or 2.
  ExpectMatchesSortedReference(GenerateUniformBipartite(40, 30, 45, 11));
  // Every vertex ties with every other on its side.
  ExpectMatchesSortedReference(CompleteBipartite(4, 6));
  // Isolated vertices on both sides, ids above and below the edges'.
  ExpectMatchesSortedReference(
      BipartiteGraph(6, 5, {{1, 1}, {1, 3}, {3, 1}, {3, 3}, {4, 3}}));
  ExpectMatchesSortedReference(BipartiteGraph(3, 2, {}));
  ChungLuParams params;
  params.num_upper = 120;
  params.num_lower = 90;
  params.num_edges = 700;
  params.seed = 5;
  ExpectMatchesSortedReference(GenerateChungLu(params));
}

TEST(VertexPriority, MatchesSortedReferenceOnAChurnedSlotTable) {
  DynamicBipartiteGraph g(GenerateUniformBipartite(30, 25, 150, 3));
  Rng rng(17);
  // Deletes outnumber inserts, and inserts reuse freed slots first, so the
  // table ends with free slots (which appear in no adjacency entry).
  for (int step = 0; step < 90; ++step) {
    if (step % 3 != 0) {
      EdgeId slot = static_cast<EdgeId>(rng.Below(g.NumSlots()));
      while (!g.IsLive(slot)) slot = (slot + 1) % g.NumSlots();
      ASSERT_TRUE(g.DeleteEdge(slot).ok());
    } else {
      const auto u = static_cast<VertexId>(rng.Below(g.NumUpper()));
      const auto l = static_cast<VertexId>(rng.Below(g.NumLower()));
      if (g.FindEdge(u, g.NumUpper() + l) == kInvalidEdge) {
        ASSERT_TRUE(g.InsertEdge(u, l).ok());
      }
    }
  }
  ASSERT_LT(g.NumEdges(), g.NumSlots());
  ExpectMatchesSortedReference(g);
}

TEST(ButterflyCounting, SupportSumIsFourTimesTotal) {
  ChungLuParams params;
  params.num_upper = 60;
  params.num_lower = 40;
  params.num_edges = 500;
  params.seed = 99;
  const BipartiteGraph g = GenerateChungLu(params);
  std::uint64_t sum = 0;
  for (const SupportT s : CountEdgeSupports(g)) sum += s;
  EXPECT_EQ(sum, 4 * CountTotalButterflies(g));
}

TEST(BEIndex, SupportIdentityMatchesDirectCounting) {
  // Lemma 4: sup(e) == sum over blooms containing e of (k(B) - 1).
  ChungLuParams params;
  params.num_upper = 50;
  params.num_lower = 35;
  params.num_edges = 400;
  params.seed = 1234;
  const BipartiteGraph g = GenerateChungLu(params);
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  const BEIndex index = BEIndexBuilder::Build(g, adj);
  EXPECT_EQ(index.ComputeSupports(), CountEdgeSupports(g.NumEdges(), adj));
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(BEIndex, EdgeLiveCountSumsTwoPerWedge) {
  const BipartiteGraph g = CompleteBipartite(3, 3);
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  const BEIndex index = BEIndexBuilder::Build(g, adj);
  std::uint64_t incidences = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    incidences += index.EdgeLiveCount(e);
  }
  EXPECT_EQ(incidences, 2 * index.bloom_slots.size());
}

TEST(BEIndex, KillWedgeParksDeadWedgesAfterTheLivePrefix) {
  // BiT-BU++ reads the wedges a batch killed in bloom b from the slots
  // [live, live + t) right after the live prefix, so KillWedge must park
  // them there, ahead of wedges killed by earlier batches.
  const BipartiteGraph g = CompleteBipartite(4, 6);
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  BEIndex index = BEIndexBuilder::Build(g, adj);
  BloomId b = 0;
  for (BloomId c = 1; c < index.NumBlooms(); ++c) {
    if (index.bloom_live[c] > index.bloom_live[b]) b = c;
  }
  ASSERT_GE(index.bloom_live[b], 5u);
  const std::uint64_t begin = index.bloom_offsets[b];
  const auto kill_slots = [&](std::vector<std::uint64_t> offsets) {
    std::vector<WedgeId> killed;
    for (const std::uint64_t off : offsets) {
      killed.push_back(index.bloom_slots[begin + off]);
    }
    for (const WedgeId w : killed) index.KillWedge(w);
    std::sort(killed.begin(), killed.end());
    return killed;
  };

  const WedgeId earlier = kill_slots({1}).front();  // an earlier batch
  const SupportT live_before = index.bloom_live[b];
  // First, last and a middle slot of the remaining live prefix.
  const std::vector<WedgeId> killed =
      kill_slots({0, live_before / 2, live_before - 1});
  const SupportT live = index.bloom_live[b];
  ASSERT_EQ(live, live_before - 3);

  std::vector<WedgeId> parked(index.bloom_slots.begin() + begin + live,
                              index.bloom_slots.begin() + begin + live + 3);
  std::sort(parked.begin(), parked.end());
  EXPECT_EQ(parked, killed);
  EXPECT_EQ(index.bloom_slots[begin + live + 3], earlier);
  for (std::uint64_t slot = begin; slot < begin + live; ++slot) {
    const WedgeId w = index.bloom_slots[slot];
    EXPECT_TRUE(index.wedge_alive[w]);
    EXPECT_EQ(index.wedge_slot[w], slot);
  }
  for (const WedgeId w : killed) EXPECT_FALSE(index.wedge_alive[w]);
}

TEST(BEIndex, SlotPairsFollowTheirWedgeThroughKills) {
  // The peel reads each wedge's edges from slot_edges in bloom slot order,
  // so KillWedge must carry a wedge's pair along with its slot.
  ChungLuParams params;
  params.num_upper = 40;
  params.num_lower = 30;
  params.num_edges = 400;
  params.seed = 99;
  const BipartiteGraph g = GenerateChungLu(params);
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  BEIndex index = BEIndexBuilder::Build(g, adj);
  const WedgeId num_wedges = static_cast<WedgeId>(index.bloom_slots.size());
  ASSERT_GT(num_wedges, 100u);

  // The build numbers each wedge by its slot: the slot maps start as the
  // identity, a wedge's bloom is the one whose run holds its id, and each
  // edge's CSR list ascends.
  for (WedgeId w = 0; w < num_wedges; ++w) {
    EXPECT_EQ(index.bloom_slots[w], w);
    EXPECT_EQ(index.wedge_slot[w], w);
  }
  for (BloomId b = 0; b < index.NumBlooms(); ++b) {
    for (std::uint32_t w = index.bloom_offsets[b];
         w < index.bloom_offsets[b + 1]; ++w) {
      EXPECT_EQ(index.wedge_bloom[w], b) << "wedge " << w;
    }
  }
  EXPECT_EQ(index.bloom_offsets.back(), num_wedges);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    for (std::uint64_t i = index.edge_offsets[e] + 1;
         i < index.edge_offsets[e + 1]; ++i) {
      EXPECT_LT(index.edge_wedges[i - 1], index.edge_wedges[i])
          << "edge " << e;
    }
  }

  // After the build, every wedge's pair holds both edges whose CSR lists
  // the wedge.
  std::vector<BEIndex::WedgeEdges> pair_of(num_wedges);
  for (WedgeId w = 0; w < num_wedges; ++w) {
    ASSERT_EQ(index.bloom_slots[index.wedge_slot[w]], w);
    pair_of[w] = index.slot_edges[index.wedge_slot[w]];
    EXPECT_EQ(index.Twin(w, pair_of[w].e1), pair_of[w].e2);
    EXPECT_EQ(index.Twin(w, pair_of[w].e2), pair_of[w].e1);
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    for (std::uint64_t i = index.edge_offsets[e];
         i < index.edge_offsets[e + 1]; ++i) {
      const BEIndex::WedgeEdges& pair = pair_of[index.edge_wedges[i]];
      EXPECT_TRUE(pair.e1 == e || pair.e2 == e) << "edge " << e;
    }
  }

  // Kill a seeded random third of the wedges, in random order.
  Rng rng(7);
  std::vector<WedgeId> doomed;
  for (WedgeId w = 0; w < num_wedges; ++w) {
    if (rng.Below(3) == 0) doomed.push_back(w);
  }
  for (std::size_t i = doomed.size(); i > 1; --i) {
    std::swap(doomed[i - 1], doomed[rng.Below(i)]);
  }
  for (const WedgeId w : doomed) index.KillWedge(w);

  std::vector<std::uint8_t> dead(num_wedges, 0);
  for (const WedgeId w : doomed) dead[w] = 1;
  for (WedgeId w = 0; w < num_wedges; ++w) {
    const std::uint32_t slot = index.wedge_slot[w];
    ASSERT_EQ(index.bloom_slots[slot], w);
    EXPECT_EQ(index.slot_edges[slot], pair_of[w]) << "wedge " << w;
    EXPECT_EQ(index.Twin(w, pair_of[w].e1), pair_of[w].e2) << "wedge " << w;
    EXPECT_EQ(index.Twin(w, pair_of[w].e2), pair_of[w].e1) << "wedge " << w;
    EXPECT_EQ(index.wedge_alive[w], dead[w] ? 0 : 1) << "wedge " << w;
  }
}

TEST(SupportBuckets, MovesTakesAndSkipsExactly) {
  // Edge 7 is skipped; every other edge comes out exactly once, at the
  // level it sits on when taken.
  const std::vector<SupportT> support = {3, 3, 3, 3, 0, 5, 2, 7};
  std::vector<std::uint8_t> skip(support.size(), 0);
  skip[7] = 1;
  SupportBuckets queue(support, skip);
  std::vector<EdgeId> out;

  EXPECT_EQ(queue.TakeLowest(1, &out), 0u);
  EXPECT_EQ(out, std::vector<EdgeId>({4}));
  EXPECT_EQ(queue.TakeLowest(1, &out), 2u);
  EXPECT_EQ(out, std::vector<EdgeId>({6}));

  // A delta of 4 lands below the level last taken: the cursor rewinds.
  queue.Move(5, 5, 1);
  EXPECT_EQ(queue.TakeLowest(1, &out), 1u);
  EXPECT_EQ(out, std::vector<EdgeId>({5}));

  // A move to level 0; a whole-level take returns just that edge.
  queue.Move(1, 3, 0);
  EXPECT_EQ(queue.TakeLowest(support.size(), &out), 0u);
  EXPECT_EQ(out, std::vector<EdgeId>({1}));

  // One edge of level 3, then the rest of it as one batch.
  EXPECT_EQ(queue.TakeLowest(1, &out), 3u);
  ASSERT_EQ(out.size(), 1u);
  std::vector<EdgeId> level3 = out;
  EXPECT_EQ(queue.TakeLowest(support.size(), &out), 3u);
  EXPECT_EQ(out.size(), 2u);
  level3.insert(level3.end(), out.begin(), out.end());
  std::sort(level3.begin(), level3.end());
  EXPECT_EQ(level3, std::vector<EdgeId>({0, 2, 3}));

  queue.TakeLowest(support.size(), &out);
  EXPECT_TRUE(out.empty());
}

TEST(SupportBuckets, RandomMovesAndTakesMatchABruteForceMinimum) {
  // Supports span about ten windows, so takes refill from the overflow
  // list, and decrements cross from the overflow into the window and fall
  // below the level last taken.  Every take must return the brute-force
  // minimum over the live supports: one edge of it, or all of it.
  constexpr SupportT kSpan = 10 * SupportBuckets::kWindow;
  constexpr EdgeId kEdges = 400;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<SupportT> support(kEdges);
    std::vector<std::uint8_t> skip(kEdges, 0);
    std::vector<EdgeId> live;
    for (EdgeId e = 0; e < kEdges; ++e) {
      support[e] = static_cast<SupportT>(rng.Below(kSpan));
      if (rng.NextBool(0.1)) {
        skip[e] = 1;
      } else {
        live.push_back(e);
      }
    }
    SupportBuckets queue(support, skip);
    std::vector<EdgeId> out;
    std::vector<std::uint8_t> taken(kEdges, 0);
    SupportT last = 0;
    SupportT highest = 0;
    while (!live.empty()) {
      for (std::uint64_t i = rng.Below(3); i > 0; --i) {
        const EdgeId e = live[rng.Below(live.size())];
        const SupportT from = support[e];
        SupportT to = from;
        const std::uint64_t kind = rng.Below(10);
        if (kind < 7) {  // a small step, mostly within a window or the overflow
          to = from - static_cast<SupportT>(
                          rng.Below(std::min<SupportT>(from, 4) + 1));
        } else if (kind < 9) {  // anywhere below: overflow into the window
          to = static_cast<SupportT>(rng.Below(from + 1));
        } else {  // below the level last taken, when that is below `from`
          to = static_cast<SupportT>(rng.Below(std::min(from, last) + 1));
        }
        if (to == from) continue;
        queue.Move(e, from, to);
        support[e] = to;
      }

      const bool whole_level = rng.NextBool(0.5);
      const SupportT level =
          queue.TakeLowest(whole_level ? kEdges : 1, &out, support);
      SupportT lowest = support[live.front()];
      for (const EdgeId e : live) lowest = std::min(lowest, support[e]);
      std::vector<EdgeId> at_lowest;
      for (const EdgeId e : live) {
        if (support[e] == lowest) at_lowest.push_back(e);
      }
      std::sort(at_lowest.begin(), at_lowest.end());
      ASSERT_EQ(level, lowest) << "seed " << seed;
      if (whole_level) {
        std::vector<EdgeId> sorted = out;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(sorted, at_lowest) << "seed " << seed << " level " << level;
      } else {
        ASSERT_EQ(out.size(), 1u) << "seed " << seed;
        ASSERT_TRUE(std::binary_search(at_lowest.begin(), at_lowest.end(),
                                       out.front()))
            << "seed " << seed << " level " << level;
      }
      for (const EdgeId e : out) taken[e] = 1;
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](EdgeId e) { return taken[e] != 0; }),
                 live.end());
      last = level;
      highest = std::max(highest, level);
    }
    queue.TakeLowest(kEdges, &out, support);
    EXPECT_TRUE(out.empty()) << "seed " << seed;
    // The takes climbed through several windows, so refills were exercised.
    EXPECT_GT(highest, 4 * SupportBuckets::kWindow) << "seed " << seed;
  }
}

TEST(Verify, AcceptsCorrectAndRejectsWrongNumbers) {
  const BipartiteGraph g = CompleteBipartite(3, 3);
  // K(3,3) is its own 4-bitruss and there is no 5-bitruss: phi(e) = 4.
  std::vector<SupportT> phi(g.NumEdges(), 4);
  std::string error;
  EXPECT_TRUE(VerifyBitrussNumbers(g, phi, &error)) << error;

  std::vector<SupportT> too_high(g.NumEdges(), 5);
  EXPECT_FALSE(VerifyBitrussNumbers(g, too_high, &error));
  EXPECT_FALSE(error.empty());

  std::vector<SupportT> uneven = phi;
  uneven[0] = 3;
  EXPECT_FALSE(VerifyBitrussNumbers(g, uneven));

  EXPECT_FALSE(VerifyBitrussNumbers(g, std::vector<SupportT>(3, 4)));
}

TEST(Verify, PathIsZeroBitruss) {
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  EXPECT_TRUE(VerifyBitrussNumbers(g, std::vector<SupportT>(3, 0)));
  EXPECT_FALSE(VerifyBitrussNumbers(g, std::vector<SupportT>(3, 1)));
}

}  // namespace
}  // namespace bitruss
