// Tests for the dynamic bipartite graph: random insert/delete streams on
// suite graphs with the maintained supports and butterfly total checked
// against the recount truth of differential_oracle.h, Snapshot()+Decompose()
// equivalence with an identically built static graph, Decompose() of the
// slot table itself (free slots included) against that of its Snapshot(),
// the mark-based
// butterfly walk against a FindEdge-lookup reference, slot compaction, and
// the Status contract for duplicate inserts / missing deletes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <utility>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "butterfly/wedge_enumeration.h"
#include "core/decompose.h"
#include "differential_oracle.h"
#include "dynamic/dynamic_graph.h"
#include "gen/dataset_suite.h"
#include "gen/random_bipartite.h"
#include "graph/bipartite_graph.h"
#include "util/random.h"

namespace bitruss {
namespace {

using differential::ApplyTo;
using differential::ExpectMatches;
using differential::MakeStream;
using differential::Oracle;

TEST(DynamicGraph, SeedMatchesStaticCounting) {
  for (const char* name : {"Writer", "Github"}) {
    const BipartiteGraph seed = MakeDataset(name, 0.05);
    const DynamicBipartiteGraph dynamic(seed);
    EXPECT_EQ(dynamic.NumEdges(), seed.NumEdges());
    EXPECT_EQ(dynamic.NumSlots(), seed.NumEdges());
    EXPECT_EQ(dynamic.NumButterflies(), CountTotalButterflies(seed));
    // Seed edges keep their CSR EdgeIds as slot ids.
    const std::vector<SupportT> sup = CountEdgeSupports(seed);
    for (EdgeId e = 0; e < seed.NumEdges(); ++e) {
      ASSERT_TRUE(dynamic.IsLive(e));
      EXPECT_EQ(dynamic.EdgeUpper(e), seed.EdgeUpper(e));
      EXPECT_EQ(dynamic.EdgeLower(e), seed.EdgeLower(e));
      ASSERT_EQ(dynamic.Support(e), sup[e]) << "edge " << e;
    }
  }
}

TEST(DynamicGraph, HandComputedButterflyDeltas) {
  // Path u0 - l0 - u1 - l1: no butterflies.  Inserting (u0, l1) closes
  // K(2,2); every edge then has support 1.  Deleting it restores zero.
  const BipartiteGraph seed(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  DynamicBipartiteGraph dynamic(seed);
  EXPECT_EQ(dynamic.NumButterflies(), 0u);

  auto closing = dynamic.InsertEdge(0, 1);
  ASSERT_TRUE(closing.ok());
  EXPECT_EQ(dynamic.NumEdges(), 4u);
  EXPECT_EQ(dynamic.NumButterflies(), 1u);
  for (EdgeId e = 0; e < 4; ++e) EXPECT_EQ(dynamic.Support(e), 1u);

  ASSERT_TRUE(dynamic.DeleteEdge(closing.value()).ok());
  EXPECT_EQ(dynamic.NumEdges(), 3u);
  EXPECT_EQ(dynamic.NumButterflies(), 0u);
  for (EdgeId e = 0; e < 3; ++e) EXPECT_EQ(dynamic.Support(e), 0u);
}

TEST(DynamicGraph, RandomStreamMaintainsExactSupports) {
  for (const char* name : {"Writer", "Github", "D-style"}) {
    SCOPED_TRACE(name);
    const BipartiteGraph seed = MakeDataset(name, 0.02);
    const std::vector<EdgeUpdate> ops =
        MakeStream(seed, 300, HashString64(name));
    Oracle oracle(seed, ops);
    DynamicBipartiteGraph dynamic(seed);
    for (std::uint64_t applied = 1; applied <= ops.size(); ++applied) {
      ASSERT_TRUE(ApplyTo(dynamic, ops[applied - 1]).ok());
      if (applied % 50 == 0) {
        ASSERT_NO_FATAL_FAILURE(ExpectMatches(dynamic, oracle.At(applied)));
      }
    }
  }
}

TEST(DynamicGraph, SnapshotDecomposeMatchesStaticBuild) {
  const BipartiteGraph seed = GenerateUniformBipartite(40, 30, 220, 11);
  DynamicBipartiteGraph dynamic(seed);
  for (const EdgeUpdate& op : MakeStream(seed, 200, 42)) {
    ASSERT_TRUE(ApplyTo(dynamic, op).ok());
  }

  // Rebuild the surviving edge list straight from the live slots and
  // construct a static graph the way a from-scratch caller would.
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (EdgeId e = 0; e < dynamic.NumSlots(); ++e) {
    if (dynamic.IsLive(e)) {
      pairs.emplace_back(dynamic.EdgeUpper(e),
                         dynamic.EdgeLower(e) - dynamic.NumUpper());
    }
  }
  const BipartiteGraph static_graph(dynamic.NumUpper(), dynamic.NumLower(),
                                    std::move(pairs));

  const GraphSnapshot snapshot = dynamic.Snapshot();
  ASSERT_EQ(snapshot.graph.NumEdges(), static_graph.NumEdges());
  ASSERT_EQ(snapshot.graph.EdgeList(), static_graph.EdgeList());
  // The stable mapping points each snapshot edge back at its slot, whose
  // maintained support matches an independent count of the snapshot.
  const std::vector<SupportT> counted = CountEdgeSupports(snapshot.graph);
  for (EdgeId e = 0; e < snapshot.graph.NumEdges(); ++e) {
    const EdgeId slot = snapshot.slot_of_edge[e];
    ASSERT_TRUE(dynamic.IsLive(slot));
    EXPECT_EQ(snapshot.graph.EdgeUpper(e), dynamic.EdgeUpper(slot));
    EXPECT_EQ(snapshot.graph.EdgeLower(e), dynamic.EdgeLower(slot));
    EXPECT_EQ(dynamic.Support(slot), counted[e]);
  }

  EXPECT_EQ(Decompose(snapshot.graph).phi, Decompose(static_graph).phi);
}

TEST(DynamicGraph, DecomposeOfTheSlotTableMatchesItsSnapshot) {
  const BipartiteGraph seed = MakeDataset("Github", 0.05);
  DynamicBipartiteGraph dynamic(seed);
  // Free slots in the middle and at the end of the table, no compaction.
  const EdgeId num_slots = dynamic.NumSlots();
  const std::vector<EdgeId> freed = {num_slots / 3, num_slots / 2,
                                     num_slots - 2, num_slots - 1};
  for (const EdgeId slot : freed) ASSERT_TRUE(dynamic.DeleteEdge(slot).ok());
  ASSERT_EQ(dynamic.NumSlots(), num_slots);
  ASSERT_GT(dynamic.NumButterflies(), 0u);
  const GraphSnapshot snapshot = dynamic.Snapshot();

  for (const Algorithm algorithm :
       {Algorithm::kBS, Algorithm::kBU, Algorithm::kBUPlus,
        Algorithm::kBUPlusPlus, Algorithm::kPC}) {
    DecomposeOptions options;
    options.algorithm = algorithm;
    const BitrussResult slots = Decompose(dynamic, options);
    const BitrussResult csr = Decompose(snapshot.graph, options);
    const int id = static_cast<int>(algorithm);
    ASSERT_EQ(slots.phi.size(), num_slots) << id;
    ASSERT_EQ(slots.original_support.size(), num_slots) << id;
    EXPECT_EQ(slots.total_butterflies, dynamic.NumButterflies()) << id;
    for (const EdgeId slot : freed) {
      EXPECT_EQ(slots.phi[slot], 0u) << id;
      EXPECT_EQ(slots.original_support[slot], 0u) << id;
    }
    for (EdgeId e = 0; e < snapshot.graph.NumEdges(); ++e) {
      const EdgeId slot = snapshot.slot_of_edge[e];
      ASSERT_EQ(slots.phi[slot], csr.phi[e]) << id << " slot " << slot;
      ASSERT_EQ(slots.original_support[slot], csr.original_support[e]) << id;
      ASSERT_EQ(slots.original_support[slot], dynamic.Support(slot)) << id;
    }
  }
}

using Triplets = std::vector<std::array<EdgeId, 3>>;

// The walk of internal::ForEachButterflyThroughEdge with every closing edge
// found by a FindEdge lookup instead of the mark.
Triplets ProbeTriplets(const DynamicBipartiteGraph& g, VertexId u,
                       VertexId v) {
  VertexId s = u, t = v;
  if (g.Degree(t) < g.Degree(s)) std::swap(s, t);
  Triplets out;
  for (const auto& x : g.Neighbors(s)) {
    if (x.neighbor == t) continue;
    for (const auto& w : g.Neighbors(x.neighbor)) {
      if (w.neighbor == s) continue;
      const EdgeId closing = g.FindEdge(w.neighbor, t);
      if (closing != kInvalidEdge) out.push_back({x.edge, w.edge, closing});
    }
  }
  return out;
}

TEST(DynamicGraph, MarkedWalkMatchesHashProbeWalk) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    // A uniform graph plus an upper hub adjacent to most lower vertices and
    // a lower hub adjacent to most upper ones: the hubs put high-degree
    // vertices on both sides of the walk, as t and as closing endpoints.
    constexpr VertexId kUpper = 30, kLower = 24;
    const BipartiteGraph base =
        GenerateUniformBipartite(kUpper, kLower, 150, seed);
    std::vector<std::pair<VertexId, VertexId>> pairs;
    for (EdgeId e = 0; e < base.NumEdges(); ++e) {
      pairs.emplace_back(base.EdgeUpper(e), base.EdgeLower(e) - kUpper);
    }
    Rng rng(seed);
    for (VertexId l = 0; l < kLower; ++l) {
      if (rng.NextBool(0.8)) pairs.emplace_back(0, l);
    }
    for (VertexId u = 0; u < kUpper; ++u) {
      if (rng.NextBool(0.8)) pairs.emplace_back(u, 0);
    }
    DynamicBipartiteGraph dynamic(
        BipartiteGraph(kUpper, kLower, std::move(pairs)));

    std::vector<EdgeId> mark;
    std::size_t butterflies = 0;
    const auto expect_walk_matches = [&](VertexId u, VertexId v) {
      Triplets walked;
      internal::ForEachButterflyThroughEdge(
          dynamic, u, v, mark, [&](EdgeId e1, EdgeId e2, EdgeId e3) {
            walked.push_back({e1, e2, e3});
          });
      butterflies += walked.size();
      EXPECT_EQ(walked, ProbeTriplets(dynamic, u, v))
          << "edge (" << u << ", " << v << ")";
      ASSERT_EQ(mark.size(), dynamic.NumVertices());
      for (VertexId x = 0; x < dynamic.NumVertices(); ++x) {
        ASSERT_EQ(mark[x], kInvalidEdge) << "mark left set at vertex " << x;
      }
    };

    // Interleave walks before a delete (the edge still present) and before
    // an insert (the pair still absent), hub pairs included, mutating the
    // graph after each so later walks see a changed adjacency.
    for (int step = 0; step < 120; ++step) {
      const VertexId u = step % 4 == 0 ? 0 : rng.Below(kUpper);
      const VertexId l = step % 4 == 1 ? 0 : rng.Below(kLower);
      const VertexId v = kUpper + l;
      const EdgeId present = dynamic.FindEdge(u, v);
      ASSERT_NO_FATAL_FAILURE(expect_walk_matches(u, v));
      if (present != kInvalidEdge) {
        ASSERT_TRUE(dynamic.DeleteEdge(present).ok());
      } else {
        ASSERT_TRUE(dynamic.InsertEdge(u, l).ok());
      }
    }
    EXPECT_GT(butterflies, 0u);
  }
}

TEST(DynamicGraph, DuplicateInsertAndMissingDeleteFail) {
  DynamicBipartiteGraph dynamic(BipartiteGraph(3, 3, {{0, 0}, {1, 1}}));
  const EdgeId live = dynamic.NumEdges();
  const VertexId l0 = dynamic.NumUpper();  // global id of lower vertex 0
  const VertexId n = dynamic.NumVertices();

  // FindEdge takes the pair in either order; absent pairs, same-side pairs
  // and out-of-range ids all read kInvalidEdge.
  EXPECT_EQ(dynamic.FindEdge(0, l0), 0u);
  EXPECT_EQ(dynamic.FindEdge(l0, 0), 0u);
  EXPECT_EQ(dynamic.FindEdge(1, l0 + 1), 1u);
  EXPECT_EQ(dynamic.FindEdge(l0 + 1, 1), 1u);
  EXPECT_EQ(dynamic.FindEdge(0, l0 + 1), kInvalidEdge);
  EXPECT_EQ(dynamic.FindEdge(0, 1), kInvalidEdge);
  EXPECT_EQ(dynamic.FindEdge(n, l0), kInvalidEdge);
  EXPECT_EQ(dynamic.FindEdge(0, n), kInvalidEdge);
  EXPECT_EQ(dynamic.FindEdge(l0, kInvalidVertex), kInvalidEdge);

  auto duplicate = dynamic.InsertEdge(0, 0);
  EXPECT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
  EXPECT_THROW(duplicate.value(), std::logic_error);

  auto out_of_range = dynamic.InsertEdge(3, 0);
  EXPECT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dynamic.InsertEdge(0, 9).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(dynamic.DeleteEdge(17).code(), StatusCode::kNotFound);
  ASSERT_TRUE(dynamic.DeleteEdge(0).ok());
  EXPECT_EQ(dynamic.DeleteEdge(0).code(), StatusCode::kNotFound);  // double
  EXPECT_EQ(dynamic.FindEdge(0, l0), kInvalidEdge);
  EXPECT_EQ(dynamic.FindEdge(l0, 0), kInvalidEdge);

  // Failed operations leave the graph untouched (one successful delete).
  EXPECT_EQ(dynamic.NumEdges(), live - 1);

  // Re-inserting the deleted pair reuses its slot, and FindEdge finds it.
  auto reinserted = dynamic.InsertEdge(0, 0);
  ASSERT_TRUE(reinserted.ok());
  EXPECT_EQ(reinserted.value(), 0u);
  EXPECT_EQ(dynamic.FindEdge(0, l0), 0u);
  EXPECT_EQ(dynamic.FindEdge(l0, 0), 0u);
  EXPECT_EQ(dynamic.FindEdge(1, l0 + 1), 1u);
}

TEST(DynamicGraph, FreedSlotsAreReused) {
  DynamicBipartiteGraph dynamic(BipartiteGraph(4, 4, {{0, 0}, {1, 1}, {2, 2}}));
  ASSERT_TRUE(dynamic.DeleteEdge(1).ok());
  EXPECT_FALSE(dynamic.IsLive(1));
  auto reinserted = dynamic.InsertEdge(3, 3);
  ASSERT_TRUE(reinserted.ok());
  EXPECT_EQ(reinserted.value(), 1u);  // free list before slot growth
  EXPECT_TRUE(dynamic.IsLive(1));
  EXPECT_EQ(dynamic.NumSlots(), 3u);
  EXPECT_EQ(dynamic.FindEdge(3, dynamic.NumUpper() + 3), 1u);
  EXPECT_EQ(dynamic.FindEdge(1, dynamic.NumUpper() + 1), kInvalidEdge);
}

TEST(DynamicGraph, UpdateDeltaReportsTouchedEdges) {
  // Path u0 - l0 - u1 - l1: inserting (u0, l1) closes one butterfly whose
  // three pre-existing edges are exactly the path; deleting it reports
  // the same set on the way out.  Edge ids 0..2 are the seed CSR ids.
  DynamicBipartiteGraph dynamic(BipartiteGraph(2, 2, {{0, 0}, {1, 0}, {1, 1}}));
  UpdateDelta delta;
  delta.touched.push_back(99);  // must be cleared by the next update

  auto closing = dynamic.InsertEdge(0, 1, &delta);
  ASSERT_TRUE(closing.ok());
  EXPECT_EQ(delta.butterflies, 1u);
  std::vector<EdgeId> touched = delta.touched;
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, (std::vector<EdgeId>{0, 1, 2}));

  ASSERT_TRUE(dynamic.DeleteEdge(closing.value(), &delta).ok());
  EXPECT_EQ(delta.butterflies, 1u);
  touched = delta.touched;
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, (std::vector<EdgeId>{0, 1, 2}));

  // A butterfly-free delete reports an empty delta.
  ASSERT_TRUE(dynamic.DeleteEdge(0, &delta).ok());
  EXPECT_EQ(delta.butterflies, 0u);
  EXPECT_TRUE(delta.touched.empty());

  // Failed updates leave the caller's delta untouched.
  delta.touched.push_back(42);
  EXPECT_FALSE(dynamic.InsertEdge(9, 9, &delta).ok());
  EXPECT_FALSE(dynamic.DeleteEdge(0, &delta).ok());
  EXPECT_EQ(delta.touched, (std::vector<EdgeId>{42}));

  // Each butterfly is one triplet: K(2,3) minus (u0, l2) gains two
  // butterflies from (u0, l2), and each triplet closes one 2x2 block with it.
  DynamicBipartiteGraph k23(
      BipartiteGraph(2, 3, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}}));
  auto added = k23.InsertEdge(0, 2, &delta);
  ASSERT_TRUE(added.ok());
  ASSERT_EQ(delta.butterflies, 2u);
  ASSERT_EQ(delta.touched.size(), 3 * delta.butterflies);
  for (std::size_t i = 0; i < delta.touched.size(); i += 3) {
    std::vector<EdgeId> block = {added.value(), delta.touched[i],
                                 delta.touched[i + 1], delta.touched[i + 2]};
    std::vector<VertexId> uppers, lowers;
    for (const EdgeId e : block) {
      uppers.push_back(k23.EdgeUpper(e));
      lowers.push_back(k23.EdgeLower(e));
    }
    std::sort(block.begin(), block.end());
    EXPECT_EQ(std::unique(block.begin(), block.end()), block.end());
    std::sort(uppers.begin(), uppers.end());
    std::sort(lowers.begin(), lowers.end());
    EXPECT_EQ(std::unique(uppers.begin(), uppers.end()) - uppers.begin(), 2);
    EXPECT_EQ(std::unique(lowers.begin(), lowers.end()) - lowers.begin(), 2);
  }
}

TEST(DynamicGraph, SupportDeltaGuardsSaturate) {
  constexpr SupportT kMax = std::numeric_limits<SupportT>::max();
  // Normal range: plain ±1 steps.
  EXPECT_EQ(internal::SaturatingIncrement(0), 1u);
  EXPECT_EQ(internal::SaturatingIncrement(41), 42u);
  EXPECT_EQ(internal::SaturatingDecrement(42), 41u);
  EXPECT_EQ(internal::SaturatingDecrement(1), 0u);
  EXPECT_EQ(internal::SaturatingSupportCast(0), 0u);
  EXPECT_EQ(internal::SaturatingSupportCast(kMax), kMax);
#ifdef NDEBUG
  // Release behavior at the boundaries: saturate instead of wrapping.
  // (Debug builds assert on the same inputs; the invariant violation is a
  // bug there, not a value to test.)
  EXPECT_EQ(internal::SaturatingIncrement(kMax), kMax);
  EXPECT_EQ(internal::SaturatingDecrement(0), 0u);
  EXPECT_EQ(internal::SaturatingSupportCast(std::uint64_t{kMax} + 1), kMax);
  EXPECT_EQ(internal::SaturatingSupportCast(~std::uint64_t{0}), kMax);
#endif
}

TEST(DynamicGraph, CompactSlotsBoundsSlotGrowthUnderChurn) {
  constexpr int kOpsPerCycle = 200;
  const BipartiteGraph seed = MakeDataset("Writer", 0.02);
  const std::vector<EdgeUpdate> ops =
      MakeStream(seed, 4 * kOpsPerCycle, 31337);
  Oracle oracle(seed, ops, kOpsPerCycle);
  DynamicBipartiteGraph dynamic(seed);

  // Sustained churn keeps NumEdges() roughly flat.  Without compaction
  // the slot table stays at the live-edge high-water mark, holding the
  // slots freed since; a periodic CompactSlots() must return it to
  // exactly the live-edge count.
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < kOpsPerCycle; ++i) {
      ASSERT_TRUE(ApplyTo(dynamic, ops[cycle * kOpsPerCycle + i]).ok());
    }
    ASSERT_GT(dynamic.NumSlots(), dynamic.NumEdges());  // churn left holes

    const EdgeId live = dynamic.NumEdges();
    const EdgeId old_slots = dynamic.NumSlots();
    const std::vector<EdgeId> mapping = dynamic.CompactSlots();
    ASSERT_EQ(mapping.size(), old_slots);
    EXPECT_EQ(dynamic.NumSlots(), live);  // bounded: slots == live edges
    EXPECT_EQ(dynamic.NumEdges(), live);

    // The mapping renumbers live slots monotonically and drops free ones.
    EdgeId expected = 0;
    for (EdgeId old_slot = 0; old_slot < old_slots; ++old_slot) {
      if (mapping[old_slot] != kInvalidEdge) {
        EXPECT_EQ(mapping[old_slot], expected++);
      }
    }
    EXPECT_EQ(expected, live);

    // Adjacency, FindEdge, and maintained supports all survive, and the
    // graph keeps mutating correctly in the next cycle.
    for (EdgeId e = 0; e < dynamic.NumSlots(); ++e) {
      ASSERT_TRUE(dynamic.IsLive(e));
      EXPECT_EQ(dynamic.FindEdge(dynamic.EdgeUpper(e), dynamic.EdgeLower(e)),
                e);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(
        dynamic, oracle.At((cycle + 1) * kOpsPerCycle)));
  }
}

TEST(DynamicGraph, CompactSlotsOnCompactTableIsANoOp) {
  DynamicBipartiteGraph dynamic(BipartiteGraph(3, 3, {{0, 0}, {1, 1}, {2, 2}}));
  const std::vector<EdgeId> mapping = dynamic.CompactSlots();
  EXPECT_EQ(mapping, (std::vector<EdgeId>{0, 1, 2}));
  EXPECT_EQ(dynamic.NumSlots(), 3u);
  for (EdgeId e = 0; e < 3; ++e) EXPECT_TRUE(dynamic.IsLive(e));
}

TEST(DynamicGraph, EmptySeed) {
  DynamicBipartiteGraph dynamic(BipartiteGraph(0, 0, {}));
  EXPECT_EQ(dynamic.NumEdges(), 0u);
  EXPECT_EQ(dynamic.NumButterflies(), 0u);
  EXPECT_EQ(dynamic.InsertEdge(0, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dynamic.Snapshot().graph.NumEdges(), 0u);
  EXPECT_GT(dynamic.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace bitruss
