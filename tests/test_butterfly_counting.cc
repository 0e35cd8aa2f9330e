// Golden tests for butterfly counting on hand-computed graphs, plus the
// vertex priority order and priority adjacency against sorted references,
// the BE-Index support identity (Lemma 4), the two structures the peel
// relies on (the index's links and slot pairs, and the SupportBuckets
// queue) and VerifyBitrussNumbers itself.

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

TEST(BEIndex, LinkCountsSumTwoPerWedge) {
  const BipartiteGraph g = CompleteBipartite(3, 3);
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  const BEIndex index = BEIndexBuilder::Build(g, adj);
  std::uint64_t incidences = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    incidences += index.edge_offsets[e + 1] - index.edge_offsets[e];
  }
  EXPECT_GT(index.slot_edges.size(), 0u);
  EXPECT_EQ(incidences, 2 * index.slot_edges.size());
}

TEST(BEIndex, LinksMirrorSlotPairs) {
  // The peel finds a removed edge's wedges through its links and reads
  // their pairs from the bloom runs, so the two must describe the same
  // wedges: every slot's pair (e1, e2) in bloom b appears as {b, e2} in
  // e1's links and {b, e1} in e2's, each edge's links ascend by bloom,
  // and there are no others.  For the full build and a compressed one.
  ChungLuParams params;
  params.num_upper = 40;
  params.num_lower = 30;
  params.num_edges = 400;
  params.seed = 99;
  const BipartiteGraph g = GenerateChungLu(params);
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  Rng rng(7);
  std::vector<std::uint8_t> assigned(g.NumEdges());
  std::vector<std::uint8_t> included(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    assigned[e] = rng.Below(2) == 0;
    included[e] = rng.Below(5) != 0;
  }
  const BEIndex full = BEIndexBuilder::Build(g, adj);
  const BEIndex compressed =
      BEIndexBuilder::BuildCompressed(g.NumEdges(), adj, assigned, included);
  ASSERT_GT(full.slot_edges.size(), 100u);
  ASSERT_GT(compressed.slot_edges.size(), 0u);
  ASSERT_LT(compressed.slot_edges.size(), full.slot_edges.size());
  for (const BEIndex* index : {&full, &compressed}) {
    SCOPED_TRACE(index == &full ? "full" : "compressed");
    const std::uint64_t num_wedges = index->slot_edges.size();
    ASSERT_EQ(index->bloom_offsets.size(), index->NumBlooms() + 1u);
    EXPECT_EQ(index->bloom_offsets.front(), 0u);
    EXPECT_EQ(index->bloom_offsets.back(), num_wedges);
    ASSERT_EQ(index->edge_offsets.size(), g.NumEdges() + 1u);
    EXPECT_EQ(index->edge_offsets.back(), 2 * num_wedges);
    EXPECT_EQ(index->edge_links.size(), 2 * num_wedges);

    const auto has_link = [&](EdgeId e, BEIndex::Link link) {
      const auto first = index->edge_links.begin() + index->edge_offsets[e];
      const auto last = index->edge_links.begin() + index->edge_offsets[e + 1];
      return std::find(first, last, link) != last;
    };
    for (BloomId b = 0; b < index->NumBlooms(); ++b) {
      // A fresh build: the whole run is live.
      EXPECT_EQ(index->bloom_live[b],
                index->bloom_offsets[b + 1] - index->bloom_offsets[b]);
      EXPECT_GE(index->BloomK(b), 2u) << "bloom " << b;
      for (std::uint32_t slot = index->bloom_offsets[b];
           slot < index->bloom_offsets[b + 1]; ++slot) {
        const BEIndex::WedgeEdges& pair = index->slot_edges[slot];
        EXPECT_TRUE(has_link(pair.e1, {b, pair.e2})) << "slot " << slot;
        EXPECT_TRUE(has_link(pair.e2, {b, pair.e1})) << "slot " << slot;
        if (index == &compressed) {
          EXPECT_FALSE(assigned[pair.e1] && assigned[pair.e2]) << slot;
        }
      }
    }
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      if (index == &compressed && !included[e]) {
        EXPECT_EQ(index->edge_offsets[e + 1], index->edge_offsets[e]);
      }
      for (std::uint64_t i = index->edge_offsets[e] + 1;
           i < index->edge_offsets[e + 1]; ++i) {
        EXPECT_LT(index->edge_links[i - 1].bloom, index->edge_links[i].bloom)
            << "edge " << e;
      }
    }
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
