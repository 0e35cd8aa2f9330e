// Oracle tests for incremental bitruss maintenance: after EVERY update of
// randomized insert/delete streams, the maintained phi must be
// bit-identical to a from-scratch Snapshot() + Decompose() recount — on
// the default budget (local re-peel path), a tiny budget (mixed
// local/fallback), and budget 0 (every non-trivial update falls back to
// the scoped component recompute).  Plus the long-stream fuzz sweep
// (supports, butterfly totals, and phi against recount oracles at
// checkpoints), slot compaction under churn, and stats plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "core/decompose.h"
#include "core/local_peel.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_bitruss.h"
#include "gen/dataset_suite.h"
#include "gen/random_bipartite.h"
#include "graph/bipartite_graph.h"
#include "util/random.h"

namespace bitruss {
namespace {

// Recount oracle: maintained phi (by slot) must match a full Decompose()
// of the compacted snapshot, edge by edge through the slot mapping.
void ExpectPhiMatchesRecount(const IncrementalBitruss& inc) {
  const GraphSnapshot snapshot = inc.Graph().Snapshot();
  const BitrussResult oracle = Decompose(snapshot.graph);
  ASSERT_EQ(snapshot.graph.NumEdges(), inc.Graph().NumEdges());
  for (EdgeId e = 0; e < snapshot.graph.NumEdges(); ++e) {
    const EdgeId slot = snapshot.slot_of_edge[e];
    ASSERT_EQ(inc.Phi(slot), oracle.phi[e])
        << "slot " << slot << " (snapshot edge " << e << ")";
  }
}

// Full-state oracle for the fuzz checkpoints: supports, butterfly total,
// and phi all against independent recounts.
void ExpectStateMatchesRecount(const IncrementalBitruss& inc) {
  const GraphSnapshot snapshot = inc.Graph().Snapshot();
  ASSERT_EQ(snapshot.supports, CountEdgeSupports(snapshot.graph));
  ASSERT_EQ(inc.Graph().NumButterflies(),
            CountTotalButterflies(snapshot.graph));
  const BitrussResult oracle = Decompose(snapshot.graph);
  for (EdgeId e = 0; e < snapshot.graph.NumEdges(); ++e) {
    ASSERT_EQ(inc.Phi(snapshot.slot_of_edge[e]), oracle.phi[e]);
  }
}

// Mixed stream driver; runs `checkpoint` every `verify_every` applied
// updates (1 = after every single update).  When `compact_every_checkpoints`
// is non-zero, every Nth checkpoint is followed by a CompactSlots() — the
// handed-out slot ids are remapped through the returned mapping, exactly
// as a slot-holding caller must.
template <typename CheckpointFn>
void RunCheckedStream(IncrementalBitruss& inc, int updates, int verify_every,
                      std::uint64_t seed, CheckpointFn&& checkpoint,
                      int compact_every_checkpoints = 0) {
  Rng rng(seed);
  std::vector<EdgeId> inserted;
  int checkpoints = 0;
  for (int applied = 0; applied < updates;) {
    if (!inserted.empty() && rng.NextBool(0.5)) {
      const std::size_t pick = rng.Below(inserted.size());
      ASSERT_TRUE(inc.DeleteEdge(inserted[pick]).ok());
      inserted[pick] = inserted.back();
      inserted.pop_back();
      ++applied;
    } else {
      const auto u = static_cast<VertexId>(rng.Below(inc.Graph().NumUpper()));
      const auto v = static_cast<VertexId>(rng.Below(inc.Graph().NumLower()));
      auto result = inc.InsertEdge(u, v);
      if (!result.ok()) {
        ASSERT_EQ(result.status().code(), StatusCode::kAlreadyExists);
        continue;
      }
      inserted.push_back(result.value());
      ++applied;
    }
    if (applied % verify_every == 0) {
      ASSERT_NO_FATAL_FAILURE(checkpoint(inc));
      if (compact_every_checkpoints != 0 &&
          ++checkpoints % compact_every_checkpoints == 0) {
        const std::vector<EdgeId> mapping = inc.CompactSlots();
        for (EdgeId& slot : inserted) {
          ASSERT_LT(slot, mapping.size());
          ASSERT_NE(mapping[slot], kInvalidEdge);  // it was live
          slot = mapping[slot];
        }
        ASSERT_NO_FATAL_FAILURE(checkpoint(inc));
      }
    }
  }
}

// The common case: phi against the recount oracle at every checkpoint.
void RunVerifiedStream(IncrementalBitruss& inc, int updates, int verify_every,
                       std::uint64_t seed) {
  RunCheckedStream(inc, updates, verify_every, seed, ExpectPhiMatchesRecount);
}

TEST(HIndexOfWeights, MatchesDefinition) {
  std::vector<std::uint32_t> bucket;
  EXPECT_EQ(HIndexOfWeights({}, 10, &bucket), 0u);
  EXPECT_EQ(HIndexOfWeights({5, 5, 5}, 0, &bucket), 0u);
  EXPECT_EQ(HIndexOfWeights({1}, 10, &bucket), 1u);
  EXPECT_EQ(HIndexOfWeights({3, 1, 2}, 10, &bucket), 2u);
  EXPECT_EQ(HIndexOfWeights({7, 7, 7, 7}, 10, &bucket), 4u);
  // Clamping at cap cannot lower any h-index at or below cap.
  EXPECT_EQ(HIndexOfWeights({7, 7, 7, 7}, 2, &bucket), 2u);
  EXPECT_EQ(HIndexOfWeights({0, 0, 9}, 10, &bucket), 1u);
}

TEST(IncrementalBitruss, SeedMatchesDecompose) {
  const BipartiteGraph seed = MakeDataset("Writer", 0.03);
  const IncrementalBitruss inc(seed);
  const BitrussResult expected = Decompose(seed);
  // Seed slots keep the CSR edge ids, so phi lines up directly.
  for (EdgeId e = 0; e < seed.NumEdges(); ++e) {
    ASSERT_EQ(inc.Phi(e), expected.phi[e]);
  }
}

TEST(IncrementalBitruss, HandComputedInsertAndDelete) {
  // Path u0 - l0 - u1 - l1: all phi 0.  Inserting (u0, l1) closes K(2,2)
  // and every edge rises to phi 1; deleting it drops everything back.
  const BipartiteGraph seed(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  IncrementalBitruss inc(seed);
  for (EdgeId e = 0; e < 3; ++e) EXPECT_EQ(inc.Phi(e), 0u);

  auto closing = inc.InsertEdge(0, 1);
  ASSERT_TRUE(closing.ok());
  for (EdgeId e = 0; e < 4; ++e) EXPECT_EQ(inc.Phi(e), 1u) << "slot " << e;
  EXPECT_FALSE(inc.LastUpdateStats().fallback);
  EXPECT_EQ(inc.LastUpdateStats().phi_changes, 4u);

  ASSERT_TRUE(inc.DeleteEdge(closing.value()).ok());
  for (EdgeId e = 0; e < 3; ++e) EXPECT_EQ(inc.Phi(e), 0u) << "slot " << e;
  EXPECT_EQ(inc.LastUpdateStats().phi_changes, 3u);
  EXPECT_EQ(inc.Totals().fallbacks, 0u);
  EXPECT_EQ(inc.Totals().local_repairs, 2u);
}

TEST(IncrementalBitruss, EveryUpdateBitIdenticalOnLocalPath) {
  // Unlimited literal budget: every update must be repaired by the local
  // re-peel alone — no fallback recompute to mask a repair bug.
  IncrementalBitrussOptions options;
  options.adaptive_budget = false;
  options.cascade_budget = std::numeric_limits<std::uint64_t>::max();
  for (const char* name : {"Writer", "Github"}) {
    SCOPED_TRACE(name);
    IncrementalBitruss inc(MakeDataset(name, 0.02), options);
    RunVerifiedStream(inc, /*updates=*/150, /*verify_every=*/1,
                      HashString64(name) ^ 0x5eedull);
    EXPECT_EQ(inc.Totals().fallbacks, 0u);  // all repairs stayed local
    EXPECT_EQ(inc.Totals().inserts + inc.Totals().deletes, 150u);
  }
}

TEST(IncrementalBitruss, EveryUpdateBitIdenticalOnDenseRandomGraph) {
  IncrementalBitruss inc(GenerateUniformBipartite(25, 20, 160, /*seed=*/7));
  RunVerifiedStream(inc, /*updates=*/200, /*verify_every=*/1, 99);
}

TEST(IncrementalBitruss, ForcedFallbackBitIdentical) {
  IncrementalBitrussOptions options;
  options.cascade_budget = 0;  // every non-trivial update falls back
  IncrementalBitruss inc(GenerateUniformBipartite(25, 20, 160, /*seed=*/7),
                         options);
  RunVerifiedStream(inc, /*updates=*/120, /*verify_every=*/1, 99);
  EXPECT_GT(inc.Totals().fallbacks, 0u);
}

TEST(IncrementalBitruss, TinyBudgetMixedPathsBitIdentical) {
  IncrementalBitrussOptions options;
  options.cascade_budget = 6;  // forces mid-repair aborts and rollbacks
  IncrementalBitruss inc(GenerateUniformBipartite(30, 25, 200, /*seed=*/13),
                         options);
  RunVerifiedStream(inc, /*updates=*/200, /*verify_every=*/1, 1234);
  EXPECT_GT(inc.Totals().fallbacks, 0u);
  EXPECT_GT(inc.Totals().local_repairs, 0u);
}

TEST(IncrementalBitruss, AlternativeAlgorithmsAgree) {
  // The fallback/initial Decompose variant must not matter.
  for (const Algorithm algorithm : {Algorithm::kBS, Algorithm::kPC}) {
    IncrementalBitrussOptions options;
    options.decompose.algorithm = algorithm;
    options.cascade_budget = 16;
    IncrementalBitruss inc(GenerateUniformBipartite(20, 15, 110, /*seed=*/3),
                           options);
    RunVerifiedStream(inc, /*updates=*/80, /*verify_every=*/1, 77);
  }
}

TEST(IncrementalBitruss, CompactSlotsPreservesMaintainedState) {
  IncrementalBitruss inc(MakeDataset("Writer", 0.02));
  RunVerifiedStream(inc, /*updates=*/120, /*verify_every=*/60, 4242);

  const EdgeId live = inc.Graph().NumEdges();
  const std::vector<EdgeId> mapping = inc.CompactSlots();
  EXPECT_EQ(inc.Graph().NumSlots(), live);
  EXPECT_EQ(inc.Graph().NumEdges(), live);
  EXPECT_EQ(inc.PhiBySlot().size(), live);
  for (const EdgeId target : mapping) {
    if (target != kInvalidEdge) {
      ASSERT_LT(target, live);
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectStateMatchesRecount(inc));
  // The maintainer keeps working across the compaction.
  RunVerifiedStream(inc, /*updates=*/60, /*verify_every=*/20, 4243);
}

// The long-stream fuzz sweep: >= 10k mixed updates across three suite
// datasets, with supports, NumButterflies(), and phi checked against
// recount oracles at every checkpoint, and a CompactSlots() interleaved at
// every second checkpoint so the maintained state is fuzzed across slot
// renumbering too (stale scratch sized to the old slot table would
// corrupt the very next repair).
TEST(IncrementalBitruss, LongStreamFuzzAcrossSuiteDatasets) {
  constexpr int kUpdatesPerDataset = 3500;
  constexpr int kCheckpointEvery = 500;
  for (const char* name : {"Writer", "Github", "Twitter"}) {
    SCOPED_TRACE(name);
    IncrementalBitruss inc(MakeDataset(name, 0.02));
    RunCheckedStream(inc, kUpdatesPerDataset, kCheckpointEvery,
                     HashString64(name) ^ 0xf022ull, ExpectStateMatchesRecount,
                     /*compact_every_checkpoints=*/2);
    EXPECT_EQ(inc.Totals().inserts + inc.Totals().deletes,
              static_cast<std::uint64_t>(kUpdatesPerDataset));
  }
}

// Dense adversary: D-style's hub-heavy lower side is a near-complete
// block, so an insert's affected band legitimately spans most of the
// graph and the budget forces the component-recompute fallback.  The
// maintained phi must stay bit-identical through that path too.
TEST(IncrementalBitruss, DenseBlockFallsBackAndStaysExact) {
  // Nearly all vertex pairs are present, so churn seed edges directly:
  // delete a random live slot, then re-insert a random free pair.
  IncrementalBitruss inc(MakeDataset("D-style", 0.01));
  Rng rng(2026);
  for (int round = 0; round < 30; ++round) {
    EdgeId victim = kInvalidEdge;
    do {
      victim = static_cast<EdgeId>(rng.Below(inc.Graph().NumSlots()));
    } while (!inc.Graph().IsLive(victim));
    const VertexId u = inc.Graph().EdgeUpper(victim);
    const VertexId v = inc.Graph().EdgeLower(victim) - inc.Graph().NumUpper();
    ASSERT_TRUE(inc.DeleteEdge(victim).ok());
    ASSERT_NO_FATAL_FAILURE(ExpectPhiMatchesRecount(inc));
    ASSERT_TRUE(inc.InsertEdge(u, v).ok());  // the pair just freed
    ASSERT_NO_FATAL_FAILURE(ExpectPhiMatchesRecount(inc));
  }
  EXPECT_GT(inc.Totals().fallbacks, 0u);
}

// The maintainer owns a graph plus large slot-indexed scratch; a silent
// copy would fork phi state and double memory.  Moves stay allowed.
static_assert(!std::is_copy_constructible_v<IncrementalBitruss>,
              "IncrementalBitruss must not be copyable");
static_assert(!std::is_copy_assignable_v<IncrementalBitruss>,
              "IncrementalBitruss must not be copy-assignable");
static_assert(std::is_move_constructible_v<IncrementalBitruss>,
              "IncrementalBitruss should stay movable");
static_assert(std::is_move_assignable_v<IncrementalBitruss>,
              "IncrementalBitruss should stay move-assignable");

// Regression: a concurrent reader (or any slot-holding caller) may present
// a slot id from before a CompactSlots().  Phi() must answer 0 for any id
// at or past the current slot table — never index out of range — and
// CheckedPhi() must report the precise contract violation.
TEST(IncrementalBitruss, StaleSlotIdsAfterCompactionReadZero) {
  IncrementalBitruss inc(MakeDataset("Writer", 0.02));
  RunVerifiedStream(inc, /*updates=*/80, /*verify_every=*/40, 7777);
  // Free a few slots explicitly so the table is guaranteed sparse.
  for (EdgeId slot = 0; slot < 3; ++slot) {
    ASSERT_TRUE(inc.Graph().IsLive(slot));
    ASSERT_TRUE(inc.DeleteEdge(slot).ok());
  }
  const EdgeId slots_before = inc.Graph().NumSlots();
  ASSERT_GT(slots_before, inc.Graph().NumEdges());  // free slots exist

  const std::vector<EdgeId> mapping = inc.CompactSlots();
  const EdgeId slots_after = inc.Graph().NumSlots();
  ASSERT_LT(slots_after, slots_before);

  // Every pre-compaction id in the now-out-of-range band reads 0.
  for (EdgeId stale = slots_after; stale < slots_before; ++stale) {
    EXPECT_EQ(inc.Phi(stale), 0u) << "stale slot " << stale;
    const auto checked = inc.CheckedPhi(stale);
    ASSERT_FALSE(checked.ok());
    EXPECT_EQ(checked.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(inc.Phi(kInvalidEdge), 0u);
  EXPECT_EQ(inc.Phi(slots_before + 12345), 0u);

  // Live slots answer their maintained phi through both accessors.
  for (EdgeId slot = 0; slot < slots_after; ++slot) {
    ASSERT_TRUE(inc.Graph().IsLive(slot));
    const auto checked = inc.CheckedPhi(slot);
    ASSERT_TRUE(checked.ok());
    EXPECT_EQ(checked.value(), inc.Phi(slot));
  }

  // A free (deleted, in-range) slot is kNotFound, not kInvalidArgument.
  EdgeId victim = 0;
  ASSERT_TRUE(inc.DeleteEdge(victim).ok());
  EXPECT_EQ(inc.Phi(victim), 0u);
  const auto freed = inc.CheckedPhi(victim);
  ASSERT_FALSE(freed.ok());
  EXPECT_EQ(freed.status().code(), StatusCode::kNotFound);
}

TEST(IncrementalBitruss, StatsPlumbing) {
  const BipartiteGraph seed(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  IncrementalBitruss inc(seed);

  // Butterfly-free insert: trivial local repair, no work counted.
  // (u1, l1) already exists; (0, 1) closes the butterfly instead.
  auto lone = inc.InsertEdge(0, 1);
  ASSERT_TRUE(lone.ok());
  EXPECT_FALSE(inc.LastUpdateStats().fallback);
  EXPECT_GT(inc.LastUpdateStats().enumerated_butterflies, 0u);
  EXPECT_EQ(inc.Totals().inserts, 1u);

  ASSERT_TRUE(inc.DeleteEdge(lone.value()).ok());
  EXPECT_EQ(inc.Totals().deletes, 1u);
  EXPECT_EQ(inc.Totals().local_repairs, 2u);

  // Failed updates leave stats untouched.
  const IncrementalTotals before = inc.Totals();
  EXPECT_FALSE(inc.InsertEdge(0, 0).ok());
  EXPECT_FALSE(inc.DeleteEdge(12345).ok());
  EXPECT_EQ(inc.Totals().inserts, before.inserts);
  EXPECT_EQ(inc.Totals().deletes, before.deletes);
}

// ---------------------------------------------------------------------------
// Batched apply: ApplyBatch must leave exactly the state per-update Apply
// leaves — the same slots, supports and phi, and the same failure count —
// whatever the batch width and wherever its first bail-out falls.
// ---------------------------------------------------------------------------

void ExpectSameGraphState(const DynamicBipartiteGraph& got,
                          const DynamicBipartiteGraph& want) {
  const DynamicGraphState a = got.ExportState();
  const DynamicGraphState b = want.ExportState();
  ASSERT_EQ(a.num_upper, b.num_upper);
  ASSERT_EQ(a.num_lower, b.num_lower);
  ASSERT_EQ(a.num_butterflies, b.num_butterflies);
  ASSERT_EQ(a.upper, b.upper);
  ASSERT_EQ(a.lower, b.lower);
  ASSERT_EQ(a.support, b.support);
  ASSERT_EQ(a.free_slots, b.free_slots);
}

// Feeds `stream` to ApplyBatch in batches of `width` (0 = the whole stream
// in one batch) and to per-update Apply side by side, comparing after
// every batch: failure counts, slot tables, phi by slot, and phi against a
// from-scratch recount.
void ExpectBatchesMatchPerUpdate(const BipartiteGraph& seed,
                                 const IncrementalBitrussOptions& options,
                                 const std::vector<EdgeUpdate>& stream,
                                 std::size_t width) {
  IncrementalBitruss batched(seed, options);
  IncrementalBitruss reference(seed, options);
  const std::size_t step = width == 0 ? stream.size() : width;
  for (std::size_t begin = 0; begin < stream.size(); begin += step) {
    const std::size_t end = std::min(stream.size(), begin + step);
    SCOPED_TRACE("batch [" + std::to_string(begin) + ", " +
                 std::to_string(end) + ")");
    const std::vector<EdgeUpdate> batch(stream.begin() + begin,
                                        stream.begin() + end);
    std::uint64_t reference_failures = 0;
    for (const EdgeUpdate& update : batch) {
      if (!reference.Apply(update).ok()) ++reference_failures;
    }
    ASSERT_EQ(batched.ApplyBatch(batch), reference_failures);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameGraphState(batched.Graph(), reference.Graph()));
    ASSERT_EQ(batched.PhiBySlot(), reference.PhiBySlot());
    ASSERT_NO_FATAL_FAILURE(ExpectPhiMatchesRecount(batched));
  }
  const IncrementalTotals& totals = batched.Totals();
  EXPECT_EQ(totals.inserts, reference.Totals().inserts);
  EXPECT_EQ(totals.deletes, reference.Totals().deletes);
  EXPECT_EQ(totals.local_repairs + totals.fallbacks + totals.deferred_edits,
            totals.inserts + totals.deletes);
  // A batch recomputes at most once, and never more often than the
  // per-update path.
  EXPECT_LE(totals.fallbacks, reference.Totals().fallbacks);
  EXPECT_LE(totals.fallbacks, (stream.size() + step - 1) / step);
}

// A churn stream that also carries the routine failures: duplicate
// inserts and deletes of absent edges.
std::vector<EdgeUpdate> MakeChurnStream(const BipartiteGraph& seed, int count,
                                        std::uint64_t rng_seed) {
  DynamicBipartiteGraph sim(seed);
  Rng rng(rng_seed);
  std::vector<EdgeUpdate> stream;
  const auto random_pair = [&] {
    return std::make_pair(static_cast<VertexId>(rng.Below(sim.NumUpper())),
                          static_cast<VertexId>(rng.Below(sim.NumLower())));
  };
  while (static_cast<int>(stream.size()) < count) {
    const std::uint64_t roll = rng.Below(20);
    if (roll < 9) {
      // Delete a live edge.
      EdgeId slot = kInvalidEdge;
      while (sim.NumEdges() > 0 && !sim.IsLive(slot)) {
        slot = static_cast<EdgeId>(rng.Below(sim.NumSlots()));
      }
      if (slot == kInvalidEdge) continue;
      stream.push_back({EdgeUpdate::Kind::kDelete, sim.EdgeUpper(slot),
                        sim.EdgeLower(slot) - sim.NumUpper()});
      EXPECT_TRUE(sim.DeleteEdge(slot).ok());
    } else if (roll < 18) {
      // Insert a random pair: a duplicate when it is already present.
      const auto [u, l] = random_pair();
      stream.push_back({EdgeUpdate::Kind::kInsert, u, l});
      (void)sim.InsertEdge(u, l);
    } else {
      // Delete a random pair: a miss when it is absent.
      const auto [u, l] = random_pair();
      stream.push_back({EdgeUpdate::Kind::kDelete, u, l});
      const EdgeId slot = sim.FindEdge(u, sim.NumUpper() + l);
      if (slot != kInvalidEdge) {
        EXPECT_TRUE(sim.DeleteEdge(slot).ok());
      }
    }
  }
  return stream;
}

TEST(IncrementalBitrussBatch, MatchesPerUpdateApplyOnGithubChurn) {
  const BipartiteGraph seed = MakeDataset("Github", 0.02);
  IncrementalBitrussOptions forced;
  forced.cascade_budget = 0;  // every non-trivial update falls back
  IncrementalBitrussOptions tiny;
  tiny.cascade_budget = 64;  // bail-outs land mid-batch
  const std::pair<const char*, IncrementalBitrussOptions> budgets[] = {
      {"budget 0", forced}, {"budget 64", tiny}, {"default budget", {}}};
  for (const auto& [label, options] : budgets) {
    for (const std::size_t width : {1, 7, 64, 0}) {
      SCOPED_TRACE(std::string(label) + ", width " + std::to_string(width));
      const std::vector<EdgeUpdate> stream =
          MakeChurnStream(seed, 300, 0xba7c4ull + width);
      ExpectBatchesMatchPerUpdate(seed, options, stream, width);
    }
  }
}

// Two K(2,2) blocks joined by the bridge (u1, l2):
//   block A = {u0, u1} x {l0, l1},  block B = {u2, u3} x {l2, l3}.
BipartiteGraph TwoBlocksWithBridge() {
  return BipartiteGraph(5, 5,
                        {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2},
                         {2, 2}, {2, 3}, {3, 2}, {3, 3}});
}

TEST(IncrementalBitrussBatch, HandCasesMatchPerUpdateApply) {
  using Kind = EdgeUpdate::Kind;
  const BipartiteGraph seed = TwoBlocksWithBridge();
  const struct {
    const char* name;
    std::vector<EdgeUpdate> stream;
  } cases[] = {
      // (u1, l3) closes a butterfly with the bridge, so it falls back
      // under budget 0; deleting the bridge then splits the component the
      // recompute must cover.
      {"delete splits a component",
       {{Kind::kInsert, 1, 3}, {Kind::kDelete, 1, 2}, {Kind::kDelete, 1, 3}}},
      // Deleting (u0, l0) falls back under budget 0; with the bridge gone,
      // (u0, l2) merges the two blocks again and (u1, l2) closes a
      // butterfly across them; (u4, l4) is a new isolated component.
      {"insert merges components",
       {{Kind::kDelete, 0, 0}, {Kind::kDelete, 1, 2}, {Kind::kInsert, 0, 2},
        {Kind::kInsert, 1, 2}, {Kind::kInsert, 4, 4}}},
      // With the bridge gone, deleting (u0, l0) falls back in block A;
      // the later delete in block B is a plain edit in a component the
      // fallback's own endpoints do not reach.
      {"deferred edit in another component",
       {{Kind::kDelete, 1, 2}, {Kind::kDelete, 0, 0}, {Kind::kDelete, 2, 2}}},
      {"duplicate insert",
       {{Kind::kInsert, 0, 2}, {Kind::kInsert, 0, 0}, {Kind::kInsert, 0, 2}}},
      {"delete of a missing edge",
       {{Kind::kDelete, 4, 4}, {Kind::kInsert, 0, 2}, {Kind::kDelete, 0, 4}}},
      // The first update is a non-trivial delete: it falls back at once
      // under budget 0, and every later update is a plain edit.
      {"first update falls back",
       {{Kind::kDelete, 0, 0}, {Kind::kInsert, 1, 3}, {Kind::kInsert, 0, 0},
        {Kind::kDelete, 2, 2}}},
  };
  IncrementalBitrussOptions forced;
  forced.cascade_budget = 0;
  for (const auto& c : cases) {
    for (const IncrementalBitrussOptions& options :
         {forced, IncrementalBitrussOptions{}}) {
      SCOPED_TRACE(std::string(c.name) + ", budget " +
                   std::to_string(options.cascade_budget));
      for (const std::size_t width : {1, 2, 0}) {
        SCOPED_TRACE("width " + std::to_string(width));
        ExpectBatchesMatchPerUpdate(seed, options, c.stream, width);
      }
    }
  }

  // The duplicate insert and the missing delete count as failures; the
  // first-update fallback turns the rest of its batch into plain edits.
  EXPECT_EQ(IncrementalBitruss(seed, forced).ApplyBatch(cases[3].stream), 2u);
  EXPECT_EQ(IncrementalBitruss(seed, forced).ApplyBatch(cases[4].stream), 2u);
  IncrementalBitruss first(seed, forced);
  EXPECT_EQ(first.ApplyBatch(cases[5].stream), 0u);
  EXPECT_TRUE(first.LastUpdateStats().fallback);
  EXPECT_EQ(first.Totals().fallbacks, 1u);
  EXPECT_EQ(first.Totals().deferred_edits, 3u);
  EXPECT_EQ(first.Totals().local_repairs, 0u);
}

TEST(IncrementalBitrussBatch, EmptyBatchChangesNothing) {
  IncrementalBitruss inc(TwoBlocksWithBridge());
  const std::vector<SupportT> before = inc.PhiBySlot();
  EXPECT_EQ(inc.ApplyBatch({}), 0u);
  EXPECT_EQ(inc.PhiBySlot(), before);
  EXPECT_FALSE(inc.LastUpdateStats().fallback);
}

}  // namespace
}  // namespace bitruss
