// Tests for the concurrent bitruss serving layer (serve/bitruss_service.h):
// snapshot semantics, backpressure, shutdown/drain contracts, publish-sized
// batching, latency instruments, and the writer/reader race-freedom stress
// test that the TSan CI job runs — 1 writer + 4 readers over a mixed
// insert/delete stream with compaction, every published snapshot checked
// slot for slot against the recount truth of differential_oracle.h at its
// version.  Exactness across publish cadences, compaction and recovery is
// the Differential table's job (test_incremental_bitruss.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "differential_oracle.h"
#include "gen/random_bipartite.h"
#include "graph/bipartite_graph.h"
#include "obs/metrics.h"
#include "serve/bitruss_service.h"
#include "util/status.h"

namespace bitruss {
namespace {

// The service is a thread owner; accidental copies must not compile.
static_assert(!std::is_copy_constructible_v<BitrussService>,
              "BitrussService must not be copyable");
static_assert(!std::is_copy_assignable_v<BitrussService>,
              "BitrussService must not be copy-assignable");

using differential::ExpectMatches;
using differential::MakeStream;
using differential::Oracle;

TEST(BitrussService, InitialSnapshotMatchesSeedDecompose) {
  const BipartiteGraph seed = GenerateUniformBipartite(20, 15, 110, 3);
  BitrussService service(seed);
  const auto snap = service.Snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 1u);
  EXPECT_EQ(snap->applied_updates, 0u);
  EXPECT_EQ(service.StalenessUpdates(), 0u);
  const std::vector<EdgeUpdate> none;
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(*snap, Oracle(seed, none).At(0)));
}

TEST(BitrussService, SnapshotQueriesAreConsistentWithArrays) {
  // Slots 0-8 a K(3,3) block (phi 4 on every edge), 9-11 pendant edges
  // (phi 0), 12-17 a K(2,3) block (phi 2); seed edges take slots in
  // (upper, lower) order.  Deleting a pendant and a K(2,3) edge frees two
  // slots in the middle and leaves levels 0, 1 and 4 with runs of equal
  // phi, so ties at every top-k threshold fall to the slot order.
  const BipartiteGraph seed(
      7, 8, {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0},
             {2, 1}, {2, 2}, {3, 6}, {3, 7}, {4, 6}, {5, 3}, {5, 4},
             {5, 5}, {6, 3}, {6, 4}, {6, 5}});
  BitrussService service(seed);
  ASSERT_TRUE(service.SubmitDelete(5, 4).ok());
  ASSERT_TRUE(service.SubmitDelete(4, 6).ok());
  ASSERT_TRUE(service.Drain().ok());
  const auto snap = service.Snapshot();
  ASSERT_EQ(snap->num_edges, seed.NumEdges() - 2);
  ASSERT_FALSE(snap->IsLive(11));  // (4, 6)
  ASSERT_FALSE(snap->IsLive(13));  // (5, 4)

  const auto histogram = snap->PhiHistogram();
  EXPECT_EQ(histogram, differential::CountLivePhi(*snap));
  ASSERT_EQ(histogram.size(), 3u);
  EXPECT_EQ(histogram.front(), (std::pair<SupportT, std::uint64_t>{0, 3}));
  std::uint64_t total = 0;
  std::uint64_t widest = 0;
  for (const auto& [phi, count] : histogram) {
    total += count;
    widest = std::max(widest, count);
  }
  EXPECT_EQ(total, snap->num_edges);
  EXPECT_EQ(widest, 9u);

  // Every k, including 0 and past the live count, against a full sort by
  // (phi desc, slot asc).
  const auto ranked = differential::RankLiveSlots(*snap);
  ASSERT_EQ(ranked.size(), snap->num_edges);
  for (std::size_t k = 0; k <= snap->num_edges + 1; ++k) {
    ASSERT_NO_FATAL_FAILURE(differential::ExpectTopK(*snap, ranked, k));
  }

  // Out-of-range ids answer 0/false, never fault.
  EXPECT_EQ(snap->Phi(1u << 30), 0u);
  EXPECT_EQ(snap->SupportOf(1u << 30), 0u);
  EXPECT_FALSE(snap->IsLive(1u << 30));
}

// Published snapshots are recycled once their last reader lets go, and the
// writer then rewrites only the slots touched since the buffer's version.
// A snapshot still held must never be among them.  Runs under TSan in CI
// (serve label): readers drop snapshots on their own threads.
TEST(BitrussService, RecycledSnapshotsLeaveHeldOnesIntact) {
  const BipartiteGraph seed = GenerateUniformBipartite(30, 25, 200, 13);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 120, 0x5ec1);
  BitrussServiceOptions options;
  options.publish_every_updates = 1;
  options.publish_interval_ms = 0;
  BitrussService service(seed, options);
  const auto full_copies = [] {
    const obs::RegistrySnapshot snap =
        obs::MetricsRegistry::Default().Snapshot();
    const obs::CounterSample* family =
        snap.FindCounter("bitruss_serve_publish_full_copies_total");
    return family == nullptr ? std::uint64_t{0} : family->value;
  };
  const std::uint64_t copies_before = full_copies();
  const std::uint64_t published_before = service.Stats().published_snapshots;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = service.Snapshot();
      sink += snap->TopKPhi(3).size() + snap->Phi(0);
    }
    EXPECT_GE(sink, 0u);
  });
  std::shared_ptr<const PhiSnapshot> held;
  PhiSnapshot copy;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(service.Submit(ops[i]).ok());
    ASSERT_TRUE(service.Drain().ok());
    if (i == 20) {
      held = service.Snapshot();
      copy = *held;
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  const auto latest = service.Snapshot();
  ASSERT_GE(latest->version, held->version + 3);
  EXPECT_EQ(held->version, copy.version);
  EXPECT_EQ(held->applied_updates, copy.applied_updates);
  EXPECT_EQ(held->num_edges, copy.num_edges);
  EXPECT_EQ(held->num_slots, copy.num_slots);
  EXPECT_EQ(held->num_butterflies, copy.num_butterflies);
  EXPECT_EQ(held->phi, copy.phi);
  EXPECT_EQ(held->support, copy.support);
  EXPECT_EQ(held->live, copy.live);
  EXPECT_EQ(held->phi_counts, copy.phi_counts);
  EXPECT_EQ(held->phi_block_max, copy.phi_block_max);
  ASSERT_NO_FATAL_FAILURE(
      ExpectMatches(*latest, Oracle(seed, ops).At(ops.size())));

  // Most publications took the patch path.
  const std::uint64_t publishes =
      service.Stats().published_snapshots - published_before;
  EXPECT_EQ(publishes, ops.size());
  EXPECT_LT(full_copies() - copies_before, publishes);
  service.Shutdown();
}

// The per-thread snapshot cache holds a weak_ptr: a snapshot the caller
// dropped dies at the next publication instead of staying pinned away from
// the recycler by the thread's cache entry.
TEST(BitrussService, DroppedSnapshotIsNotPinnedByTheReadPath) {
  const BipartiteGraph seed = GenerateUniformBipartite(20, 15, 110, 3);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 1, 0xd20);
  BitrussService service(seed);
  const std::weak_ptr<const PhiSnapshot> dropped = service.Snapshot();
  ASSERT_FALSE(dropped.expired());  // still the published snapshot
  ASSERT_TRUE(service.Submit(ops[0]).ok());
  ASSERT_TRUE(service.Drain().ok());
  EXPECT_TRUE(dropped.expired());
  EXPECT_EQ(service.Snapshot()->applied_updates, 1u);
  service.Shutdown();
}

// A thread whose cache entry is warm still reads the drained version
// after every Submit + Drain: the publish count it checks the entry
// against moves before Drain() can return.
TEST(BitrussService, WarmCacheReadsTheDrainedVersion) {
  const BipartiteGraph seed = GenerateUniformBipartite(20, 15, 110, 3);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 60, 0xca5e);
  BitrussService service(seed);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    // Two reads warm this thread's entry at the current version.
    ASSERT_EQ(service.Snapshot()->applied_updates, i);
    ASSERT_EQ(service.Snapshot()->applied_updates, i);
    ASSERT_TRUE(service.Submit(ops[i]).ok());
    ASSERT_TRUE(service.Drain().ok());
    ASSERT_EQ(service.Snapshot()->applied_updates, i + 1);
  }
  ASSERT_NO_FATAL_FAILURE(
      ExpectMatches(*service.Snapshot(), Oracle(seed, ops).At(ops.size())));
  service.Shutdown();
}

// A service built at a destroyed one's address starts at version 1 too,
// while the old version-1 snapshot is still held (so a weak_ptr to it
// would lock).  The cache is keyed by a process-wide id, not the address,
// so the new service's first read is its own seed.
TEST(BitrussService, ServiceAtAReusedAddressReadsItsOwnSnapshot) {
  const BipartiteGraph first = GenerateUniformBipartite(20, 15, 110, 3);
  const BipartiteGraph second = GenerateUniformBipartite(12, 9, 40, 5);
  ASSERT_NE(first.NumEdges(), second.NumEdges());
  std::optional<BitrussService> service;
  service.emplace(first);
  const BitrussService* const address = &*service;
  const auto held = service->Snapshot();
  ASSERT_EQ(held->num_edges, first.NumEdges());
  service.reset();
  service.emplace(second);
  ASSERT_EQ(&*service, address);
  const auto snap = service->Snapshot();
  EXPECT_EQ(snap->version, 1u);
  EXPECT_EQ(snap->num_edges, second.NumEdges());
  EXPECT_EQ(held->num_edges, first.NumEdges());
  const std::vector<EdgeUpdate> none;
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(*snap, Oracle(second, none).At(0)));
}

// Stats().snapshot_reads counts every acquisition, whether the thread's
// cache entry served it or the shared_ptr load did: N direct Snapshot()
// calls and M timed wrapper reads add exactly N + M.
TEST(BitrussService, SnapshotReadsCountCachedAndLoadedAcquisitions) {
  const BipartiteGraph seed = GenerateUniformBipartite(20, 15, 110, 3);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 3, 0x5ead);
  BitrussService service(seed);
  const std::uint64_t before = service.Stats().snapshot_reads;
  std::uint64_t direct = 0;
  std::uint64_t wrapped = 0;
  std::uint64_t sink = 0;
  for (const EdgeUpdate& op : ops) {
    for (int i = 0; i < 5; ++i, ++direct) sink += service.Snapshot()->Phi(0);
    sink += service.Phi(1) + service.SupportOf(1);
    sink += service.TopKPhi(2).size() + service.PhiHistogram().size();
    wrapped += 4;
    // A publication between rounds sends the next read to the load path.
    ASSERT_TRUE(service.Submit(op).ok());
    ASSERT_TRUE(service.Drain().ok());
  }
  EXPECT_GE(sink, 0u);
  EXPECT_EQ(service.Stats().snapshot_reads - before, direct + wrapped);
  service.Shutdown();
}

// TopKPhi skips every phi_block_max block that cannot hold an answer.
// Slots 0-5 are a K(2,3) block (phi 2), 6-173 paths (phi 0) and 174-189 a
// K(4,4) block (phi 9): a 190-slot table, its top edges in the last,
// partial block.  Deletes free slots inside three blocks; inserts widen
// the K(4,4) to a K(4,6) (phi 15) through those slots and into a fourth
// block; a compaction shrinks the table back to three blocks; then every
// edge goes, the top ones first.  Every update is published on its own,
// by the patch path except at compactions, and each step's snapshot is
// checked slot for slot, summaries included, and at every k.
TEST(BitrussService, TopKPhiAcrossBlockBoundaries) {
  using Kind = EdgeUpdate::Kind;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 2; ++u) {
    for (VertexId l = 0; l < 3; ++l) edges.emplace_back(u, l);
  }
  for (VertexId u = 2; u < 86; ++u) {
    edges.emplace_back(u, u + 1);
    edges.emplace_back(u, u + 2);
  }
  for (VertexId u = 86; u < 90; ++u) {
    for (VertexId l = 88; l < 92; ++l) edges.emplace_back(u, l);
  }
  const BipartiteGraph seed(90, 94, edges);
  ASSERT_EQ(seed.NumEdges(), 190u);

  std::vector<EdgeUpdate> ops;
  // Frees slots 5, 22, 103 and 162: blocks 0, 0, 1 and 2.
  for (const auto& [u, l] : std::vector<std::pair<VertexId, VertexId>>{
           {1, 2}, {10, 11}, {50, 52}, {80, 81}}) {
    ops.push_back({Kind::kDelete, u, l});
  }
  const std::size_t freed = ops.size();
  for (VertexId u = 86; u < 90; ++u) {
    for (VertexId l = 92; l < 94; ++l) ops.push_back({Kind::kInsert, u, l});
  }
  const std::size_t widened = ops.size();
  for (VertexId u = 20; u < 25; ++u) ops.push_back({Kind::kDelete, u, u + 1});
  const std::size_t compacted = ops.size();
  // Every edge still live after the compaction, the top ones (last slots)
  // first, so their blocks' maxima drop between compactions.
  {
    DynamicBipartiteGraph replay(seed);
    for (const EdgeUpdate& op : ops) {
      ASSERT_TRUE(differential::ApplyTo(replay, op).ok());
    }
    for (EdgeId slot = replay.NumSlots(); slot-- > 0;) {
      if (!replay.IsLive(slot)) continue;
      ops.push_back({Kind::kDelete, replay.EdgeUpper(slot),
                     replay.EdgeLower(slot) - replay.NumUpper()});
    }
  }

  BitrussServiceOptions options;
  options.publish_every_updates = 1;
  options.publish_interval_ms = 0;
  options.compact_every_updates = compacted;
  BitrussService service(seed, options);
  Oracle oracle(seed, ops, compacted);
  std::size_t submitted = 0;
  const auto step = [&](std::size_t until) {
    for (; submitted < until; ++submitted) {
      ASSERT_TRUE(service.Submit(ops[submitted]).ok());
    }
    ASSERT_TRUE(service.Drain().ok());
    const auto snap = service.Snapshot();
    ASSERT_EQ(snap->phi_block_max.size(),
              (snap->num_slots + PhiSnapshot::kPhiBlock - 1) /
                  PhiSnapshot::kPhiBlock);
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(*snap, oracle.At(until)));
    const auto ranked = differential::RankLiveSlots(*snap);
    for (std::size_t k = 0; k <= snap->num_edges + 1; ++k) {
      ASSERT_NO_FATAL_FAILURE(differential::ExpectTopK(*snap, ranked, k));
    }
  };
  ASSERT_NO_FATAL_FAILURE(step(0));
  EXPECT_EQ(service.Snapshot()->num_slots, 190u);
  EXPECT_EQ(service.Snapshot()->Phi(189), 9u);
  ASSERT_NO_FATAL_FAILURE(step(freed));
  EXPECT_EQ(service.Snapshot()->num_slots, 190u);
  ASSERT_NO_FATAL_FAILURE(step(widened));
  EXPECT_EQ(service.Snapshot()->num_slots, 194u);
  EXPECT_EQ(service.Snapshot()->TopKPhi(1).front().second, 15u);
  ASSERT_NO_FATAL_FAILURE(step(compacted));
  EXPECT_EQ(service.Snapshot()->num_slots, 189u);
  // Three of the top edges, half the remaining edges, then the rest.
  ASSERT_NO_FATAL_FAILURE(step(compacted + 3));
  EXPECT_LT(service.Snapshot()->TopKPhi(1).front().second, 15u);
  ASSERT_NO_FATAL_FAILURE(step(compacted + (ops.size() - compacted) / 2));
  ASSERT_NO_FATAL_FAILURE(step(ops.size()));
  const auto last = service.Snapshot();
  EXPECT_EQ(last->num_edges, 0u);
  EXPECT_TRUE(last->TopKPhi(1).empty());
  EXPECT_TRUE(last->TopKPhi(8).empty());
}

TEST(BitrussService, BackpressureWhenQueueFills) {
  const BipartiteGraph seed(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  BitrussServiceOptions options;
  options.queue_capacity = 4;
  BitrussService service(seed, options);

  // Park the writer so the queue fills deterministically.
  service.Pause();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.SubmitInsert(0, 1).ok()) << i;
  }
  const Status overflow = service.SubmitInsert(0, 1);
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.Stats().rejected_overflow, 1u);

  // Endpoint validation happens at Submit, not at apply.
  EXPECT_EQ(service.SubmitInsert(99, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.SubmitDelete(0, 99).code(), StatusCode::kInvalidArgument);

  service.Resume();
  ASSERT_TRUE(service.Drain().ok());
  EXPECT_EQ(service.AppliedUpdates(), 4u);
  // First insert closed the K(2,2); the other three were duplicates.
  EXPECT_EQ(service.Stats().apply_failures, 3u);
  EXPECT_EQ(service.Phi(3), 1u);  // the inserted edge took slot 3
  EXPECT_EQ(service.StalenessUpdates(), 0u);
  EXPECT_EQ(service.Snapshot()->applied_updates, 4u);
}

TEST(BitrussService, ShutdownDrainsThenRefusesWork) {
  const BipartiteGraph seed(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  BitrussService service(seed);
  ASSERT_TRUE(service.SubmitInsert(0, 1).ok());
  service.Shutdown(/*drain=*/true);

  EXPECT_EQ(service.AppliedUpdates(), 1u);
  const auto snap = service.Snapshot();
  EXPECT_EQ(snap->applied_updates, 1u);
  EXPECT_EQ(snap->num_edges, 4u);
  for (EdgeId e = 0; e < 4; ++e) EXPECT_EQ(snap->Phi(e), 1u);

  EXPECT_EQ(service.SubmitInsert(0, 1).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(service.Drain().ok());  // already quiescent
  service.Shutdown(true);             // idempotent
}

TEST(BitrussService, ShutdownWithoutDrainDiscardsQueue) {
  const BipartiteGraph seed(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  BitrussService service(seed);
  service.Pause();
  ASSERT_TRUE(service.SubmitInsert(0, 1).ok());
  service.Shutdown(/*drain=*/false);
  EXPECT_EQ(service.AppliedUpdates(), 0u);
  EXPECT_EQ(service.Snapshot()->applied_updates, 0u);
  EXPECT_EQ(service.Drain().code(), StatusCode::kUnavailable);
}

// Drain() from several threads at once: every caller must wake once its
// update is applied and published.  A notify that skips mu_ can land
// between a caller's predicate check and its wait and strand it, so the
// run is bounded by a deadline instead of hanging the suite.
TEST(BitrussService, ConcurrentDrainCallersAllWake) {
  const BipartiteGraph seed = GenerateUniformBipartite(8, 8, 20, 11);
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  BitrussService service(seed);
  std::atomic<int> finished{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&service, &finished, t] {
      const auto u = static_cast<VertexId>(t);
      for (int round = 0; round < kRounds; ++round) {
        // Toggle one thread-private edge; duplicate inserts are harmless.
        const Status submitted = round % 2 == 0
                                     ? service.SubmitInsert(u, u)
                                     : service.SubmitDelete(u, u);
        if (!submitted.ok() || !service.Drain().ok()) break;
      }
      finished.fetch_add(1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (finished.load() < kThreads &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool hung = finished.load() < kThreads;
  if (hung) service.Shutdown(/*drain=*/false);  // releases stuck callers
  for (std::thread& caller : callers) caller.join();
  ASSERT_FALSE(hung) << "a Drain() caller missed its wake-up";
  EXPECT_EQ(service.SubmittedUpdates(),
            static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(service.Snapshot()->applied_updates, service.SubmittedUpdates());
}

// The race-freedom satellite: one writer, four hammering readers, every
// observed snapshot verified against the from-scratch oracle at its
// version.  Run under TSan in CI (serve label).
TEST(BitrussServiceStress, EverySnapshotMatchesOracleAtItsVersion) {
  const BipartiteGraph seed = GenerateUniformBipartite(30, 25, 200, 13);
  constexpr int kUpdates = 260;
  constexpr std::uint64_t kCompactEvery = 97;
  constexpr int kReaders = 4;
  const std::vector<EdgeUpdate> ops = MakeStream(seed, kUpdates, 0xfeed);

  BitrussServiceOptions options;
  options.queue_capacity = 64;  // smaller than the stream: exercises
                                // backpressure under concurrency too
  options.publish_every_updates = 1;  // maximal snapshot coverage
  options.publish_interval_ms = 0;
  options.compact_every_updates = kCompactEvery;
  BitrussService service(seed, options);

  std::atomic<bool> stop{false};
  std::vector<std::map<std::uint64_t, std::shared_ptr<const PhiSnapshot>>>
      seen(kReaders);
  std::vector<std::uint64_t> read_sink(kReaders, 0);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t sink = 0;
      std::uint64_t probe = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = service.Snapshot();
        seen[r].emplace(snap->version, snap);
        // Hammer every read path, including intentionally stale /
        // out-of-range slot ids, while the writer mutates and compacts.
        const EdgeId slot = static_cast<EdgeId>(probe++ % (snap->num_slots + 3));
        sink += service.Phi(slot) + snap->SupportOf(slot) + snap->IsLive(slot);
        sink += service.StalenessUpdates();
        if (probe % 64 == 0) {
          sink += snap->TopKPhi(5).size() + snap->PhiHistogram().size();
        }
      }
      read_sink[r] = sink;
    });
  }

  for (const EdgeUpdate& op : ops) {
    Status status = service.Submit(op);
    while (status.code() == StatusCode::kResourceExhausted) {
      std::this_thread::yield();
      status = service.Submit(op);
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  ASSERT_TRUE(service.Drain().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  service.Shutdown(/*drain=*/true);

  const auto final_snap = service.Snapshot();
  EXPECT_EQ(final_snap->applied_updates, ops.size());
  EXPECT_EQ(service.Stats().apply_failures, 0u);  // the stream is valid
  EXPECT_EQ(service.AppliedUpdates(), ops.size());

  // Every snapshot any reader ever observed — plus the final one — must be
  // bit-identical to the recount truth at its version.
  Oracle oracle(seed, ops, kCompactEvery);
  std::map<std::uint64_t, std::shared_ptr<const PhiSnapshot>> unique;
  for (const auto& per_reader : seen) {
    unique.insert(per_reader.begin(), per_reader.end());
  }
  unique.emplace(final_snap->version, final_snap);
  EXPECT_GE(unique.size(), 2u);  // readers saw real intermediate state
  std::uint64_t last_applied = 0;
  std::uint64_t last_version = 0;
  for (const auto& [version, snap] : unique) {
    SCOPED_TRACE("snapshot version " + std::to_string(version));
    EXPECT_EQ(snap->version, version);
    // Versions and covered-update counts advance together.
    EXPECT_GT(version, last_version);
    EXPECT_GE(snap->applied_updates, last_applied);
    last_version = version;
    last_applied = snap->applied_updates;
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatches(*snap, oracle.At(snap->applied_updates)));
  }
}

// Two services publish while two readers alternate between them, so every
// read evicts the other service's cache entry.  Each service has its own
// slot count (its stream deletes and reinserts seed edges, reusing the
// freed slot), so a read served from the other service's entry shows.
// Per reader and service, versions and covered updates never go back, and
// a read after both drains sees each final version.  Run under TSan in CI
// (serve label).
TEST(BitrussServiceStress, ReadersAlternatingBetweenServicesSeeTheirOwn) {
  constexpr int kServices = 2;
  constexpr int kReaders = 2;
  constexpr int kRounds = 150;  // delete + reinsert pairs per service
  const BipartiteGraph seeds[kServices] = {
      GenerateUniformBipartite(30, 25, 200, 13),
      GenerateUniformBipartite(20, 15, 110, 3)};
  ASSERT_NE(seeds[0].NumEdges(), seeds[1].NumEdges());
  BitrussServiceOptions options;
  options.queue_capacity = 32;
  options.publish_every_updates = 1;
  options.publish_interval_ms = 0;
  std::vector<std::unique_ptr<BitrussService>> services;
  std::vector<std::vector<EdgeUpdate>> streams(kServices);
  for (int s = 0; s < kServices; ++s) {
    services.push_back(std::make_unique<BitrussService>(seeds[s], options));
    const auto edges = seeds[s].EdgeList();
    for (int round = 0; round < kRounds; ++round) {
      const auto [upper, lower] = edges[round % edges.size()];
      streams[s].push_back({EdgeUpdate::Kind::kDelete, upper, lower});
      streams[s].push_back({EdgeUpdate::Kind::kInsert, upper, lower});
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last_version[kServices] = {};
      std::uint64_t last_applied[kServices] = {};
      const auto check = [&](int s) {
        const auto snap = services[s]->Snapshot();
        EXPECT_EQ(snap->num_slots, seeds[s].NumEdges()) << "service " << s;
        EXPECT_GE(snap->version, last_version[s]) << "service " << s;
        EXPECT_GE(snap->applied_updates, last_applied[s]) << "service " << s;
        last_version[s] = snap->version;
        last_applied[s] = snap->applied_updates;
        return snap;
      };
      std::uint64_t sink = 0;
      for (std::uint64_t i = r; !stop.load(std::memory_order_acquire); ++i) {
        const int s = static_cast<int>(i % kServices);
        sink += check(s)->Phi(static_cast<EdgeId>(i % 64));
        if (i % 16 == 0) sink += services[s]->Phi(static_cast<EdgeId>(i % 64));
      }
      EXPECT_GE(sink, 0u);
      // Both drains happened before the stop flag was raised.
      for (int s = 0; s < kServices; ++s) {
        EXPECT_EQ(check(s)->applied_updates, 2u * kRounds) << "service " << s;
      }
    });
  }

  const auto submit = [&](BitrussService& service, const EdgeUpdate& op) {
    Status status = service.Submit(op);
    while (status.code() == StatusCode::kResourceExhausted) {
      std::this_thread::yield();
      status = service.Submit(op);
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
  };
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    for (int s = 0; s < kServices; ++s) submit(*services[s], streams[s][i]);
  }
  for (auto& service : services) EXPECT_TRUE(service->Drain().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  for (int s = 0; s < kServices; ++s) {
    EXPECT_EQ(services[s]->Stats().apply_failures, 0u);
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(
        *services[s]->Snapshot(),
        Oracle(seeds[s], streams[s]).At(streams[s].size())));
  }
}

// A histogram family from the default registry (the service registers its
// instruments there); empty before any service ever ran in the process.
obs::HistogramSample FamilySample(const char* name) {
  const obs::RegistrySnapshot snapshot =
      obs::MetricsRegistry::Default().Snapshot();
  const obs::HistogramSample* family = snapshot.FindHistogram(name);
  return family == nullptr ? obs::HistogramSample{} : *family;
}

obs::HistogramSample VisibilityFamilySample() {
  return FamilySample("bitruss_serve_visibility_seconds");
}

// Exactness of the request-lifecycle visibility latency (PR 8): with a
// publish-per-update cadence, every submitted update contributes exactly
// one observation, and each observation (submit -> covering snapshot
// published) is bounded by the oracle wall this thread measures around it
// (before-submit -> after-Drain, which by Drain's contract brackets the
// publication).
TEST(BitrussService, VisibilityLatencyIsExactPerUpdateAndBounded) {
  const BipartiteGraph seed = GenerateUniformBipartite(20, 15, 110, 3);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 24, /*rng_seed=*/17);

  BitrussServiceOptions options;
  options.publish_every_updates = 1;  // one visibility sample per update
  options.publish_interval_ms = 0;
  BitrussService service(seed, options);

  obs::HistogramSample prev = VisibilityFamilySample();
  for (const EdgeUpdate& op : ops) {
    const auto wall_start = std::chrono::steady_clock::now();
    ASSERT_TRUE(service.Submit(op).ok());
    ASSERT_TRUE(service.Drain().ok());
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    const obs::HistogramSample now = VisibilityFamilySample();
    const obs::HistogramSample delta =
        obs::SubtractHistogramSample(now, prev);
    prev = now;
    // Exactly this update's observation, bounded by the observed wall.
    ASSERT_EQ(delta.count, 1u);
    EXPECT_GE(delta.sum, 0.0);
    EXPECT_LE(delta.sum, wall);
  }
  service.Shutdown(/*drain=*/true);
}

// The timed read wrappers must agree with direct snapshot queries and
// record one observation per call into their latency families.
TEST(BitrussService, TimedReadWrappersMatchSnapshotAndRecordLatency) {
  const BipartiteGraph seed(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  const obs::HistogramSample phi_before = [&] {
    const obs::RegistrySnapshot snap =
        obs::MetricsRegistry::Default().Snapshot();
    const obs::HistogramSample* family =
        snap.FindHistogram("bitruss_serve_read_phi_seconds");
    return family == nullptr ? obs::HistogramSample{} : *family;
  }();

  BitrussService service(seed);
  const auto snap = service.Snapshot();
  constexpr int kReads = 16;
  for (int i = 0; i < kReads; ++i) {
    const EdgeId slot = static_cast<EdgeId>(i) % (snap->num_slots + 1);
    EXPECT_EQ(service.Phi(slot), snap->Phi(slot));
    EXPECT_EQ(service.SupportOf(slot), snap->SupportOf(slot));
  }
  EXPECT_EQ(service.TopKPhi(2), snap->TopKPhi(2));
  EXPECT_EQ(service.PhiHistogram(), snap->PhiHistogram());

  const obs::RegistrySnapshot registry_snap =
      obs::MetricsRegistry::Default().Snapshot();
  const obs::HistogramSample* phi_family =
      registry_snap.FindHistogram("bitruss_serve_read_phi_seconds");
  ASSERT_NE(phi_family, nullptr);
  // Phi and SupportOf both time into the phi family: 2 per iteration.
  EXPECT_EQ(obs::SubtractHistogramSample(*phi_family, phi_before).count,
            2u * kReads);
  ASSERT_NE(registry_snap.FindHistogram("bitruss_serve_read_topk_seconds"),
            nullptr);
  ASSERT_NE(
      registry_snap.FindHistogram("bitruss_serve_read_histogram_seconds"),
      nullptr);
  service.Shutdown();
}

// The writer batches a backlog up to each count-triggered publication:
// 600 queued updates at publish_every_updates=64 are 9 full batches plus
// the 24-update tail, each ending in exactly one publication.
TEST(BitrussService, BacklogAppliesInPublishSizedBatches) {
  const BipartiteGraph seed = GenerateUniformBipartite(25, 20, 160, 7);
  const std::vector<EdgeUpdate> ops = MakeStream(seed, 600, 0xba7c4);
  BitrussServiceOptions options;
  options.publish_every_updates = 64;
  options.publish_interval_ms = 0;
  BitrussService service(seed, options);
  const obs::HistogramSample before =
      FamilySample("bitruss_serve_batch_updates");
  const std::uint64_t published_before = service.Stats().published_snapshots;

  service.Pause();
  for (const EdgeUpdate& op : ops) ASSERT_TRUE(service.Submit(op).ok());
  service.Resume();
  ASSERT_TRUE(service.Drain().ok());

  const obs::HistogramSample batches = obs::SubtractHistogramSample(
      FamilySample("bitruss_serve_batch_updates"), before);
  EXPECT_EQ(batches.count, 10u);
  EXPECT_EQ(batches.sum, 600.0);
  EXPECT_EQ(service.Stats().published_snapshots - published_before, 10u);
  EXPECT_EQ(service.AppliedUpdates(), 600u);
  ASSERT_NO_FATAL_FAILURE(
      ExpectMatches(*service.Snapshot(), Oracle(seed, ops).At(600)));
  service.Shutdown();
}

// The lifecycle latency families must reach past a minute, so a
// backlogged p99 is measured instead of clamped at the top bound.
TEST(BitrussService, LatencyHistogramsReachPastAMinute) {
  const BipartiteGraph seed(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  BitrussService service(seed);
  for (const char* name :
       {"bitruss_serve_apply_seconds", "bitruss_serve_visibility_seconds",
        "bitruss_serve_batch_seconds"}) {
    SCOPED_TRACE(name);
    const obs::HistogramSample family = FamilySample(name);
    ASSERT_FALSE(family.bounds.empty());
    EXPECT_GE(family.bounds.back(), 60.0);
  }
  service.Shutdown();
}

}  // namespace
}  // namespace bitruss
