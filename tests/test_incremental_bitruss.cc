// Tests for incremental bitruss maintenance.  The Differential table runs
// every maintained path over each case against the recount truth of
// differential_oracle.h: ApplyBatch at widths 1 (the per-update path,
// checking phi_changes after every update), 7, 64 and the whole stream, the
// service at publish cadence 1 and 64, and Recover() from a drained and
// from a WAL-only directory.  Around it: hand-computed updates, compaction,
// stale slot ids, stats plumbing and the batch hand cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "core/be_index_builder.h"
#include "core/decompose.h"
#include "core/local_peel.h"
#include "differential_oracle.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_bitruss.h"
#include "gen/dataset_suite.h"
#include "gen/random_bipartite.h"
#include "graph/bipartite_graph.h"
#include "graph/vertex_priority.h"
#include "obs/metrics.h"
#include "serve/bitruss_service.h"
#include "util/random.h"

namespace bitruss {
namespace {

using differential::ExpectMatches;
using differential::MakeStream;
using differential::Oracle;
using differential::TempDir;
using differential::Truth;

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

  // An expired deadline is ignored, by the seed decomposition and by the
  // fallback recompute alike.  BiT-BS polls the deadline every 256 edges,
  // so on this graph an honoured deadline would leave phi partial.
  IncrementalBitrussOptions expired;
  expired.decompose.algorithm = Algorithm::kBS;
  expired.decompose.deadline = Deadline::After(0.0);
  expired.cascade_budget = 0;
  IncrementalBitruss timed(seed, expired);
  for (EdgeId e = 0; e < seed.NumEdges(); ++e) {
    ASSERT_EQ(timed.Phi(e), expected.phi[e]);
  }
  // Deleting the top-phi edge loses butterflies, so budget 0 falls back.
  const EdgeId top = static_cast<EdgeId>(
      std::max_element(expected.phi.begin(), expected.phi.end()) -
      expected.phi.begin());
  ASSERT_GT(expected.phi[top], 0u);
  ASSERT_TRUE(timed.DeleteEdge(top).ok());
  EXPECT_TRUE(timed.LastUpdateStats().fallback);
  const GraphSnapshot after = timed.Graph().Snapshot();
  const BitrussResult truth = Decompose(after.graph);
  for (EdgeId e = 0; e < after.graph.NumEdges(); ++e) {
    ASSERT_EQ(timed.Phi(after.slot_of_edge[e]), truth.phi[e]) << e;
  }
}

TEST(IncrementalBitruss, SeedEnumeratesWedgesOnce) {
  const BipartiteGraph seed = MakeDataset("Writer", 0.03);
  const std::vector<SupportT> counted = CountEdgeSupports(seed);
  const auto counter = [](const char* name) -> std::uint64_t {
    const obs::RegistrySnapshot snap = obs::MetricsRegistry::Default().Snapshot();
    const obs::CounterSample* sample = snap.FindCounter(name);
    return sample == nullptr ? 0 : sample->value;
  };
  const std::uint64_t counts = counter("bitruss_butterfly_count_runs_total");
  const std::uint64_t builds = counter("bitruss_beindex_builds_total");
  // The default BiT-BU++ seed decomposition builds one BE-Index and reads
  // both phi and the maintained supports off it: no counting pass.
  const IncrementalBitruss inc(seed);
  EXPECT_EQ(counter("bitruss_butterfly_count_runs_total") - counts, 0u);
  EXPECT_EQ(counter("bitruss_beindex_builds_total") - builds, 1u);
  ASSERT_EQ(inc.Graph().NumSlots(), seed.NumEdges());
  for (EdgeId e = 0; e < seed.NumEdges(); ++e) {
    ASSERT_EQ(inc.Graph().Support(e), counted[e]) << e;
  }
  EXPECT_EQ(inc.Graph().NumButterflies(), CountTotalButterflies(seed));
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

TEST(IncrementalBitruss, CompactSlotsPreservesMaintainedState) {
  const BipartiteGraph seed = MakeDataset("Writer", 0.02);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 180, 4242);
  Oracle oracle(seed, ops, /*compact_every=*/120);
  IncrementalBitruss inc(seed);
  for (std::size_t i = 0; i < 120; ++i) {
    ASSERT_EQ(inc.ApplyBatch({ops[i]}), 0u);
  }

  const EdgeId live = inc.Graph().NumEdges();
  const DynamicGraphState before = inc.Graph().ExportState();
  const std::vector<SupportT> phi_before = inc.PhiBySlot();
  ASSERT_GT(before.upper.size(), live);  // the stream left free slots
  const std::vector<EdgeId> mapping = inc.CompactSlots();
  ASSERT_EQ(mapping.size(), before.upper.size());
  EXPECT_EQ(inc.Graph().NumSlots(), live);
  EXPECT_EQ(inc.Graph().NumEdges(), live);
  EXPECT_EQ(inc.PhiBySlot().size(), live);
  // Live slots move into [0, live) with their phi; free ones map nowhere.
  for (EdgeId slot = 0; slot < mapping.size(); ++slot) {
    ASSERT_EQ(mapping[slot] != kInvalidEdge,
              before.upper[slot] != kInvalidVertex)
        << slot;
    if (mapping[slot] == kInvalidEdge) continue;
    ASSERT_LT(mapping[slot], live);
    EXPECT_EQ(inc.Phi(mapping[slot]), phi_before[slot]) << slot;
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(inc, oracle.At(120)));

  // The maintainer keeps working across the compaction.
  for (std::size_t i = 120; i < ops.size(); ++i) {
    ASSERT_EQ(inc.ApplyBatch({ops[i]}), 0u);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(inc, oracle.At(ops.size())));
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
  const BipartiteGraph seed = MakeDataset("Writer", 0.02);
  IncrementalBitruss inc(seed);
  for (const EdgeUpdate& op : MakeStream(seed, 80, 7777)) {
    ASSERT_EQ(inc.ApplyBatch({op}), 0u);
  }
  // Free a few slots explicitly so the table is guaranteed sparse.
  for (EdgeId slot = 0, freed = 0; freed < 3; ++slot) {
    if (!inc.Graph().IsLive(slot)) continue;
    ASSERT_TRUE(inc.DeleteEdge(slot).ok());
    ++freed;
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

// Decompose over a slot table starts from the supports the table
// maintains, for every algorithm, instead of counting them: after each
// batch of a churn they must equal a fresh Lemma-4 scan of the table's
// BE-Index.
TEST(IncrementalBitruss, SlotTableDecomposeStartsFromMaintainedSupports) {
  const BipartiteGraph seed = MakeDataset("Writer", 0.03);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 240, 9191);
  DynamicBipartiteGraph graph(seed);
  constexpr std::size_t kBatch = 40;
  for (std::size_t begin = 0; begin < ops.size(); begin += kBatch) {
    for (std::size_t i = begin; i < std::min(ops.size(), begin + kBatch);
         ++i) {
      ASSERT_TRUE(differential::ApplyTo(graph, ops[i]).ok()) << "op " << i;
    }
    const VertexPriority priority = VertexPriority::Compute(graph);
    const PriorityAdjacency adj(graph, priority);
    const std::vector<SupportT> fresh =
        BEIndexBuilder::BuildCompressed(graph.NumSlots(), adj, {}, {})
            .ComputeSupports();
    ASSERT_GT(graph.NumButterflies(), 0u);
    for (const Algorithm algorithm :
         {Algorithm::kBS, Algorithm::kBU, Algorithm::kBUPlusPlus,
          Algorithm::kPC}) {
      DecomposeOptions options;
      options.algorithm = algorithm;
      const BitrussResult result = Decompose(graph, options);
      EXPECT_EQ(result.original_support, fresh)
          << "after " << begin + kBatch << " ops, algorithm "
          << static_cast<int>(algorithm);
      EXPECT_EQ(result.total_butterflies, graph.NumButterflies());
    }
  }
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
// Differential: every maintained path against the recount truth
// ---------------------------------------------------------------------------

constexpr std::uint64_t kDefaultBudget =
    IncrementalBitrussOptions{}.cascade_budget;
constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();

// What the per-update path's totals must show for a case.
enum class Repairs {
  kAny,
  kLocalOnly,  // no fallback at all
  kFallback,   // at least one fallback
  kMixed,      // at least one fallback and one local repair
};

struct DifferentialCase {
  const char* name;
  BipartiteGraph (*make_seed)();
  int updates;
  std::uint64_t rng_seed;
  bool with_noops;
  std::uint64_t check_every;    // 1 = after every update
  std::uint64_t compact_every;  // 0 = never
  IncrementalBitrussOptions options;
  Repairs repairs;
};

void PrintTo(const DifferentialCase& c, std::ostream* os) { *os << c.name; }

// A checkpoint follows every `check_every`-th update and the last one.
bool IsCheckpoint(const DifferentialCase& c, std::uint64_t applied,
                  std::uint64_t total) {
  return applied % c.check_every == 0 || applied == total;
}

// Live slots whose phi differs from `before` (a slot free before reads 0
// there, and so does one past its end).
std::uint64_t PhiChanges(const std::vector<SupportT>& before,
                         const IncrementalBitruss& inc) {
  std::uint64_t changes = 0;
  for (EdgeId slot = 0; slot < inc.Graph().NumSlots(); ++slot) {
    const SupportT was = slot < before.size() ? before[slot] : 0;
    if (inc.Graph().IsLive(slot) && inc.Phi(slot) != was) ++changes;
  }
  return changes;
}

// What one apply path did, for comparing the batched paths with the
// per-update one.
struct ApplyRun {
  IncrementalTotals totals;
  std::uint64_t batches = 0;
};

// Applies the stream through ApplyBatch() in batches of `width` (0 = the
// whole stream), cut at compaction points as the writer cuts them.  Width
// 1 is the per-update path and also checks phi_changes after each update.
void RunApply(const DifferentialCase& c, const BipartiteGraph& seed,
              const std::vector<EdgeUpdate>& ops, std::uint64_t width,
              Oracle& oracle, ApplyRun* run) {
  IncrementalBitruss inc(seed, c.options);
  const std::uint64_t total = ops.size();
  std::uint64_t failures = 0;
  for (std::uint64_t begin = 0; begin < total; ++run->batches) {
    std::uint64_t end = width == 0 ? total : std::min(total, begin + width);
    if (c.compact_every != 0) {
      end = std::min(end, (begin / c.compact_every + 1) * c.compact_every);
    }
    const std::vector<SupportT> before =
        width == 1 ? inc.PhiBySlot() : std::vector<SupportT>{};
    const std::uint64_t failed = inc.ApplyBatch(
        std::vector<EdgeUpdate>(ops.begin() + begin, ops.begin() + end));
    if (width == 1 && failed == 0) {
      ASSERT_EQ(inc.LastUpdateStats().phi_changes, PhiChanges(before, inc))
          << "update " << end;
    }
    failures += failed;
    if (c.compact_every != 0 && end % c.compact_every == 0) {
      inc.CompactSlots();
    }
    if (IsCheckpoint(c, end, total)) {
      SCOPED_TRACE("after update " + std::to_string(end));
      const Truth& truth = oracle.At(end);
      ASSERT_EQ(failures, truth.failures);
      ASSERT_NO_FATAL_FAILURE(ExpectMatches(inc, truth));
    }
    begin = end;
  }
  run->totals = inc.Totals();
  EXPECT_EQ(run->totals.local_repairs + run->totals.fallbacks +
                run->totals.deferred_edits,
            run->totals.inserts + run->totals.deletes);
}

BitrussServiceOptions DurableOptions(const DifferentialCase& c,
                                     const std::vector<EdgeUpdate>& ops,
                                     const std::string& dir) {
  BitrussServiceOptions options;
  options.incremental = c.options;
  options.queue_capacity = ops.size();
  options.compact_every_updates = c.compact_every;
  options.persist.dir = dir;
  options.persist.fsync_policy = persist::FsyncPolicy::kOsBuffered;
  options.persist.snapshot_every_updates = 0;  // WAL only until a drain
  return options;
}

// The service over a durable directory and the first `total` updates,
// fed each checkpoint's updates while paused so the writer applies the
// backlog in publish-sized batches.
void RunService(const DifferentialCase& c, const BipartiteGraph& seed,
                const std::vector<EdgeUpdate>& ops, std::uint64_t total,
                std::uint64_t publish_every, const std::string& dir,
                bool drain_on_shutdown, Oracle& oracle) {
  BitrussServiceOptions options = DurableOptions(c, ops, dir);
  options.publish_every_updates = publish_every;
  options.publish_interval_ms = 0;
  BitrussService service(seed, options);
  for (std::uint64_t begin = 0; begin < total;) {
    const std::uint64_t end =
        std::min(total, (begin / c.check_every + 1) * c.check_every);
    service.Pause();
    for (std::uint64_t i = begin; i < end; ++i) {
      ASSERT_TRUE(service.Submit(ops[i]).ok());
    }
    service.Resume();
    ASSERT_TRUE(service.Drain().ok());
    const auto snap = service.Snapshot();
    ASSERT_EQ(snap->applied_updates, end);
    SCOPED_TRACE("snapshot at " + std::to_string(end));
    const Truth& truth = oracle.At(end);
    ASSERT_EQ(service.Stats().apply_failures, truth.failures);
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(*snap, truth));
    begin = end;
  }
  EXPECT_EQ(service.Stats().compactions,
            c.compact_every == 0 ? 0 : total / c.compact_every);
  service.Shutdown(drain_on_shutdown);
}

// Recover() from `dir` after its first `base` updates: a drained
// directory holds a snapshot covering them, a WAL-only one replays them as
// one batch.  The recovered service then takes the rest of the stream,
// counting on from its base and compacting at the truth's points when
// `base` is one of them.
void RunRecover(const DifferentialCase& c, const BipartiteGraph& seed,
                const std::vector<EdgeUpdate>& ops, std::uint64_t base,
                const std::string& dir, bool wal_only, Oracle& oracle) {
  const obs::Counter* fallbacks =
      obs::MetricsRegistry::Default().GetCounter(
          "bitruss_dynamic_fallbacks_total");
  const std::uint64_t fallbacks_before = fallbacks->Value();
  RecoveryStats stats;
  auto recovered =
      BitrussService::Recover(seed, DurableOptions(c, ops, dir), &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  BitrussService& service = *recovered.value();
  EXPECT_LE(fallbacks->Value() - fallbacks_before, 1u);
  EXPECT_FALSE(stats.from_seed);
  EXPECT_EQ(stats.snapshot_applied, wal_only ? 0 : base);
  EXPECT_EQ(stats.wal_replayed, wal_only ? base : 0);
  EXPECT_FALSE(service.Degraded());
  EXPECT_EQ(service.RecoveredBase(), base);
  ASSERT_EQ(service.Snapshot()->applied_updates, base);
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(*service.Snapshot(), oracle.At(base)));

  for (std::uint64_t i = base; i < ops.size(); ++i) {
    ASSERT_TRUE(service.Submit(ops[i]).ok());
  }
  ASSERT_TRUE(service.Drain().ok());
  SCOPED_TRACE("after the rest of the stream");
  const auto snap = service.Snapshot();
  ASSERT_EQ(snap->applied_updates, ops.size());
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(*snap, oracle.At(ops.size())));
  service.Shutdown();
}

// Every path over one stream, with ApplyBatch at each of `widths`, whose
// first must be 1 (the per-update path); returns that path's totals.  The
// paths only read truths computed up front, so they run side by side;
// recovery runs after them, when no other path moves the fallback counter
// it watches.
void RunEveryPath(const DifferentialCase& c, const BipartiteGraph& seed,
                  const std::vector<EdgeUpdate>& ops,
                  const std::vector<std::uint64_t>& widths,
                  IncrementalTotals* per_update) {
  const std::uint64_t total = ops.size();
  // The drained service stops short of the end, at a compaction point
  // where the case has them, and Recover() takes on the rest.
  const std::uint64_t resume_at =
      c.compact_every == 0 ? total / 2
                           : (total - 1) / c.compact_every * c.compact_every;
  Oracle oracle(seed, ops, c.compact_every);
  std::vector<std::uint64_t> checkpoints = {resume_at};
  for (std::uint64_t count = 1; count <= total; ++count) {
    if (IsCheckpoint(c, count, total)) checkpoints.push_back(count);
  }
  oracle.Prefetch(checkpoints);
  // runs[i] is ApplyBatch at widths[i]; runs[0] the per-update path.
  std::vector<ApplyRun> runs(widths.size());
  TempDir drained;
  TempDir wal_only;
  std::vector<std::thread> paths;
  const auto spawn = [&paths](std::string trace, auto path) {
    paths.emplace_back([trace, path] {
      SCOPED_TRACE(trace);
      try {
        path();
      } catch (const std::exception& e) {
        ADD_FAILURE() << e.what();
      }
    });
  };
  for (std::size_t i = 0; i < runs.size(); ++i) {
    spawn("ApplyBatch width " + std::to_string(widths[i]), [&, i] {
      RunApply(c, seed, ops, widths[i], oracle, &runs[i]);
    });
  }
  spawn("service publishing every update", [&] {
    RunService(c, seed, ops, resume_at, 1, drained.path,
               /*drain_on_shutdown=*/true, oracle);
  });
  spawn("service publishing every 64 updates", [&] {
    RunService(c, seed, ops, total, 64, wal_only.path,
               /*drain_on_shutdown=*/false, oracle);
  });
  for (std::thread& path : paths) path.join();
  ASSERT_FALSE(testing::Test::HasFatalFailure());

  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("ApplyBatch width " + std::to_string(widths[i]));
    // A batch recomputes at most once, and never more often than the
    // per-update path.
    EXPECT_LE(runs[i].totals.fallbacks, runs[i].batches);
    EXPECT_LE(runs[i].totals.fallbacks, runs[0].totals.fallbacks);
  }
  *per_update = runs[0].totals;
  {
    SCOPED_TRACE("Recover() from a drained directory");
    ASSERT_NO_FATAL_FAILURE(RunRecover(c, seed, ops, resume_at, drained.path,
                                       /*wal_only=*/false, oracle));
  }
  {
    // Recovery replays the WAL without compacting, and so does its truth.
    SCOPED_TRACE("Recover() from a WAL-only directory");
    Oracle uncompacted(seed, ops);
    ASSERT_NO_FATAL_FAILURE(RunRecover(c, seed, ops, total, wal_only.path,
                                       /*wal_only=*/true, uncompacted));
  }
}

IncrementalBitrussOptions Budget(std::uint64_t budget,
                                 Algorithm algorithm = Algorithm::kBUPlusPlus,
                                 unsigned threads = 0) {
  IncrementalBitrussOptions options;
  options.cascade_budget = budget;
  // kUnlimited is taken literally: every repair stays local, with no
  // fallback recompute to mask a repair bug.
  options.decompose.algorithm = algorithm;
  options.decompose.parallel.num_threads = threads;
  return options;
}

BipartiteGraph Writer() { return MakeDataset("Writer", 0.02); }
BipartiteGraph Github() { return MakeDataset("Github", 0.02); }
BipartiteGraph Twitter() { return MakeDataset("Twitter", 0.02); }
// D-style's hub-heavy lower side is a complete block, so an update's
// affected band spans most of the graph and the budget forces the
// whole-graph recompute fallback.
BipartiteGraph DStyle() { return MakeDataset("D-style", 0.01); }
BipartiteGraph Dense() { return GenerateUniformBipartite(25, 20, 160, 7); }
BipartiteGraph Denser() { return GenerateUniformBipartite(30, 25, 200, 13); }
BipartiteGraph Small() { return GenerateUniformBipartite(20, 15, 110, 3); }

const DifferentialCase kCases[] = {
    {"UnlimitedBudgetWriter", Writer, 150, HashString64("Writer") ^ 0x5eedull,
     false, 1, 50, Budget(kUnlimited), Repairs::kLocalOnly},
    {"UnlimitedBudgetGithub", Github, 150, HashString64("Github") ^ 0x5eedull,
     false, 1, 50, Budget(kUnlimited), Repairs::kLocalOnly},
    {"DenseBU", Dense, 200, 99, false, 1, 64,
     Budget(kDefaultBudget, Algorithm::kBU), Repairs::kAny},
    {"Budget0BS", Dense, 120, 99, false, 1, 40,
     Budget(0, Algorithm::kBS), Repairs::kFallback},
    {"Budget6BUPlus", Denser, 200, 1234, false, 1, 64,
     Budget(6, Algorithm::kBUPlus), Repairs::kMixed},
    {"Budget16PC4Threads", Small, 80, 77, false, 1, 0,
     Budget(16, Algorithm::kPC, 4), Repairs::kFallback},
    {"DStyle", DStyle, 60, 2026, false, 1, 0, {}, Repairs::kFallback},
    // Long streams, checked every 500 updates and compacted every 1000.
    {"LongWriter", Writer, 3500, HashString64("Writer") ^ 0xf022ull, false,
     500, 1000, {}, Repairs::kAny},
    {"LongGithub", Github, 3500, HashString64("Github") ^ 0xf022ull, false,
     500, 1000, {}, Repairs::kAny},
    {"LongTwitter", Twitter, 3500, HashString64("Twitter") ^ 0xf022ull, false,
     500, 1000, {}, Repairs::kAny},
    // Churn with duplicate inserts and deletes of missing edges, which
    // every path must count as failures; no compaction, so a batch of
    // width W is never cut and recomputes at most ceil(N / W) times.
    {"ChurnBudget0BU", Github, 300, 0xba7c4ull, true, 1, 0,
     Budget(0, Algorithm::kBU), Repairs::kFallback},
    {"ChurnBudget64", Github, 300, 0xba7c4ull, true, 1, 0, Budget(64),
     Repairs::kMixed},
    {"ChurnDefaultBudget", Github, 300, 0xba7c4ull, true, 1, 0, {},
     Repairs::kAny},
};

class Differential : public testing::TestWithParam<DifferentialCase> {};

TEST_P(Differential, EveryPathMatchesTheRecount) {
  const DifferentialCase& c = GetParam();
  const BipartiteGraph seed = c.make_seed();
  const std::vector<EdgeUpdate> ops =
      MakeStream(seed, c.updates, c.rng_seed, c.with_noops);
  IncrementalTotals totals;
  ASSERT_NO_FATAL_FAILURE(RunEveryPath(c, seed, ops, {1, 7, 64, 0}, &totals));
  if (c.repairs == Repairs::kLocalOnly) {
    EXPECT_EQ(totals.fallbacks, 0u);
  } else if (c.repairs != Repairs::kAny) {
    EXPECT_GT(totals.fallbacks, 0u);
  }
  if (c.repairs == Repairs::kMixed) {
    EXPECT_GT(totals.local_repairs, 0u);
  }
}

// ctest names each row by its case, through PrintTo.
INSTANTIATE_TEST_SUITE_P(, Differential, testing::ValuesIn(kCases));

// The fallback rule: an update falls back exactly when its full local
// repair would enumerate more than the budget, however early the repair
// bails out.  A budgeted maintainer and an unlimited one run in lockstep,
// one update per batch; the unlimited one's count is that full repair.
// Each mix makes its heavier kind of update fall back, and on Github
// also stay local.
TEST(IncrementalBitruss, FallsBackExactlyWhenTheFullRepairPassesTheBudget) {
  constexpr std::uint64_t kBudget = 1000;  // under the 1024 floor: binds
  const struct {
    const char* name;
    BipartiteGraph (*make_seed)();
    int updates;
    double delete_share;
  } cases[] = {
      {"Github insert-heavy", Github, 750, 0.2},
      {"Github delete-heavy", Github, 750, 0.8},
      {"DStyle insert-heavy", DStyle, 40, 0.2},
      {"DStyle delete-heavy", DStyle, 40, 0.8},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const BipartiteGraph seed = c.make_seed();
    const std::vector<EdgeUpdate> ops = MakeStream(
        seed, c.updates, HashString64(c.name), false, c.delete_share);
    IncrementalBitruss budgeted(seed, Budget(kBudget));
    IncrementalBitruss unlimited(seed, Budget(kUnlimited));
    // [kind][fell back]
    std::uint64_t outcomes[2][2] = {};
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ASSERT_EQ(budgeted.ApplyBatch({ops[i]}), 0u);
      ASSERT_EQ(unlimited.ApplyBatch({ops[i]}), 0u);
      const bool fallback = budgeted.LastUpdateStats().fallback;
      ASSERT_EQ(fallback,
                unlimited.LastUpdateStats().enumerated_butterflies > kBudget)
          << "update " << i;
      ASSERT_EQ(budgeted.PhiBySlot(), unlimited.PhiBySlot()) << "update " << i;
      ++outcomes[static_cast<int>(ops[i].kind)][fallback];
    }
    EXPECT_EQ(unlimited.Totals().fallbacks, 0u);
    const int heavy = static_cast<int>(c.delete_share > 0.5
                                           ? EdgeUpdate::Kind::kDelete
                                           : EdgeUpdate::Kind::kInsert);
    EXPECT_GT(outcomes[heavy][1], 0u);
    if (c.make_seed == Github) {
      EXPECT_GT(outcomes[heavy][0], 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Batched apply hand cases
// ---------------------------------------------------------------------------

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
      // under budget 0; deleting the bridge then splits the graph into
      // two components before the recompute runs.
      {"delete splits a component",
       {{Kind::kInsert, 1, 3}, {Kind::kDelete, 1, 2}, {Kind::kDelete, 1, 3}}},
      // Deleting (u0, l0) falls back under budget 0; with the bridge gone,
      // (u0, l2) merges the two blocks again and (u1, l2) closes a
      // butterfly across them; (u4, l4) is a new isolated component.
      {"insert merges components",
       {{Kind::kDelete, 0, 0}, {Kind::kDelete, 1, 2}, {Kind::kInsert, 0, 2},
        {Kind::kInsert, 1, 2}, {Kind::kInsert, 4, 4}}},
      // With the bridge gone, deleting (u0, l0) falls back in block A;
      // the later delete in block B is a plain edit in another component,
      // which the recompute covers all the same.
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
  for (const auto& c : cases) {
    for (const std::uint64_t budget : {std::uint64_t{0}, kDefaultBudget}) {
      SCOPED_TRACE(std::string(c.name) + ", budget " + std::to_string(budget));
      const DifferentialCase row{
          c.name, nullptr, 0, 0, false, 1, 0, Budget(budget), Repairs::kAny};
      IncrementalTotals totals;
      // Width 2 puts a batch boundary inside every stream.
      ASSERT_NO_FATAL_FAILURE(
          RunEveryPath(row, seed, c.stream, {1, 2, 0}, &totals));
    }
  }

  // The first-update fallback turns the rest of its batch into plain edits.
  IncrementalBitruss first(seed, Budget(0));
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
