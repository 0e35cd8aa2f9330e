// The parallel execution layer: ThreadPool/ParallelFor semantics, parallel
// counting and BE-Index construction equivalence, their work-balanced
// anchor chunks, and Decompose() with a thread pool vs the sequential
// decomposition across the dataset suite, including run-to-run
// determinism at 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "butterfly/wedge_enumeration.h"
#include "core/be_index_builder.h"
#include "core/decompose.h"
#include "gen/dataset_suite.h"
#include "graph/vertex_priority.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace bitruss {
namespace {

// Small enough that the 15-dataset x 4-thread-count sweeps stay in unit-test
// budget, large enough that every dataset has nontrivial butterflies.
constexpr double kSuiteScale = 0.04;
constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor semantics
// ---------------------------------------------------------------------------

TEST(ThreadPool, EmptyRangeNeverInvokes) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 0, [&](std::uint64_t, std::uint64_t, unsigned) {
    ++calls;
  });
  pool.ParallelFor(7, 7, [&](std::uint64_t, std::uint64_t, unsigned) {
    ++calls;
  });
  pool.ParallelForChunks(
      3, 3, 16, [&](std::uint64_t, std::uint64_t, unsigned, unsigned) {
        ++calls;
      });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.ParallelFor(0, visits.size(),
                   [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                     for (std::uint64_t i = begin; i < end; ++i) ++visits[i];
                   });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, RangeSmallerThanPool) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  std::atomic<unsigned> max_thread{0};
  pool.ParallelForChunks(
      0, visits.size(), 16,
      [&](std::uint64_t begin, std::uint64_t end, unsigned chunk,
          unsigned thread) {
        // Clamped to one chunk per element: chunk index == element index.
        EXPECT_EQ(end, begin + 1);
        EXPECT_EQ(chunk, begin);
        unsigned seen = max_thread.load();
        while (thread > seen && !max_thread.compare_exchange_weak(seen, thread)) {
        }
        for (std::uint64_t i = begin; i < end; ++i) ++visits[i];
      });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_LT(max_thread.load(), pool.NumThreads());
}

TEST(ThreadPool, ChunkPartitionIsDeterministic) {
  ThreadPool pool(3);
  const auto collect = [&] {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> bounds(7);
    pool.ParallelForChunks(10, 94, 7,
                           [&](std::uint64_t begin, std::uint64_t end,
                               unsigned chunk, unsigned) {
                             bounds[chunk] = {begin, end};
                           });
    return bounds;
  };
  const auto a = collect();
  const auto b = collect();
  EXPECT_EQ(a, b);
  // Chunks tile the range contiguously.
  std::uint64_t expect_begin = 10;
  for (const auto& [begin, end] : a) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_LE(begin, end);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, 94u);
}

TEST(ThreadPool, PoolIsReusableAcrossRegions) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.ParallelFor(0, 100, [&](std::uint64_t begin, std::uint64_t end,
                                 unsigned) {
      std::uint64_t local = 0;
      for (std::uint64_t i = begin; i < end; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ResolveNumThreads, OptionBeatsEnvironmentBeatsDefault) {
  const char* saved = std::getenv("BITRUSS_NUM_THREADS");
  const std::string saved_copy = saved ? saved : "";

  unsetenv("BITRUSS_NUM_THREADS");
  EXPECT_EQ(ResolveNumThreads({}), 1u);
  EXPECT_EQ(ResolveNumThreads({6}), 6u);

  setenv("BITRUSS_NUM_THREADS", "3", 1);
  EXPECT_EQ(ResolveNumThreads({}), 3u);
  EXPECT_EQ(ResolveNumThreads({6}), 6u) << "explicit option must win";

  setenv("BITRUSS_NUM_THREADS", "garbage", 1);
  EXPECT_EQ(ResolveNumThreads({}), 1u);
  setenv("BITRUSS_NUM_THREADS", "100000", 1);
  EXPECT_EQ(ResolveNumThreads({}), 256u) << "clamped";

  if (saved) {
    setenv("BITRUSS_NUM_THREADS", saved_copy.c_str(), 1);
  } else {
    unsetenv("BITRUSS_NUM_THREADS");
  }
}

// ---------------------------------------------------------------------------
// Parallel counting and index construction
// ---------------------------------------------------------------------------

TEST(ParallelCounting, SupportsMatchSequentialAtEveryThreadCount) {
  for (const std::string& name : DatasetNames()) {
    const BipartiteGraph g = MakeDataset(name, kSuiteScale);
    const VertexPriority priority = VertexPriority::Compute(g);
    const PriorityAdjacency adj(g, priority);
    const std::vector<SupportT> expect_sup =
        CountEdgeSupports(g.NumEdges(), adj);
    for (const unsigned threads : kThreadCounts) {
      ThreadPool pool(threads);
      EXPECT_EQ(CountEdgeSupports(g.NumEdges(), adj, &pool), expect_sup)
          << name << " x" << threads;
    }
  }
}

// Every array of the index, so a pooled build is the sequential one byte
// for byte.
void ExpectSameIndex(const BEIndex& got, const BEIndex& expect,
                     const std::string& label) {
  EXPECT_EQ(got.num_edges, expect.num_edges) << label;
  EXPECT_EQ(got.slot_edges, expect.slot_edges) << label;
  EXPECT_EQ(got.bloom_offsets, expect.bloom_offsets) << label;
  EXPECT_EQ(got.bloom_live, expect.bloom_live) << label;
  EXPECT_EQ(got.bloom_base, expect.bloom_base) << label;
  EXPECT_EQ(got.edge_offsets, expect.edge_offsets) << label;
  EXPECT_EQ(got.edge_links, expect.edge_links) << label;
}

TEST(ParallelBEIndex, BuildIsByteIdenticalToSequential) {
  // The full build, and BiT-PC's cascade build with a seeded half of the
  // edges assigned and a quarter filtered out of the candidate.
  for (const char* name : {"Github", "Amazon", "D-style"}) {
    const BipartiteGraph g = MakeDataset(name, kSuiteScale);
    const VertexPriority priority = VertexPriority::Compute(g);
    const PriorityAdjacency adj(g, priority);
    Rng rng(2024);
    std::vector<std::uint8_t> assigned(g.NumEdges());
    std::vector<std::uint8_t> included(g.NumEdges());
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      assigned[e] = rng.Below(2) == 0;
      included[e] = rng.Below(4) != 0;
    }
    const BEIndex expect = BEIndexBuilder::Build(g, adj);
    const BEIndex expect_pc =
        BEIndexBuilder::BuildCompressed(g.NumEdges(), adj, assigned, included);
    SupportT folded = 0;
    for (const SupportT base : expect_pc.bloom_base) folded += base;
    ASSERT_GT(folded, 0u) << name;
    ASSERT_GT(expect_pc.slot_edges.size(), 0u) << name;
    for (const unsigned threads : kThreadCounts) {
      ThreadPool pool(threads);
      const std::string label =
          std::string(name) + " x" + std::to_string(threads);
      const BEIndex got = BEIndexBuilder::Build(g, adj, &pool);
      ExpectSameIndex(got, expect, label);
      EXPECT_EQ(got.ComputeSupports(&pool), expect.ComputeSupports()) << name;
      const BEIndex got_pc = BEIndexBuilder::BuildCompressed(
          g.NumEdges(), adj, assigned, included, &pool);
      ExpectSameIndex(got_pc, expect_pc, label + " compressed");
      EXPECT_EQ(got_pc.ComputeSupports(&pool), expect_pc.ComputeSupports())
          << label << " compressed";
    }
  }
}

TEST(ParallelBEIndex, AnchorChunksCarryAboutEqualWork) {
  // The pooled build and count cut their anchor chunks by wedge-walk work,
  // not by vertex count: each chunk carries at most an equal share plus
  // one anchor's work, while equal vertex counts would put nearly all of
  // it in the first chunk.
  for (const char* name : {"Github", "D-style"}) {
    const BipartiteGraph g = MakeDataset(name, kSuiteScale);
    const VertexPriority priority = VertexPriority::Compute(g);
    const PriorityAdjacency adj(g, priority);
    const VertexId n = adj.NumVertices();
    std::vector<std::uint64_t> work(n, 1);
    for (VertexId r = 0; r < n; ++r) {
      const auto nu = adj.Neighbors(r);
      for (const auto* v = adj.FirstBelowPriority(r, r); v != nu.end(); ++v) {
        work[r] += adj.Neighbors(v->rank).size();
      }
    }
    const std::uint64_t total =
        std::accumulate(work.begin(), work.end(), std::uint64_t{0});
    const std::uint64_t widest = *std::max_element(work.begin(), work.end());
    const std::vector<std::uint64_t> prefix = internal::AnchorWorkPrefix(adj);
    ASSERT_EQ(prefix.size(), n + 1u);
    EXPECT_EQ(prefix.back(), total);
    EXPECT_EQ(internal::AnchorChunkBounds(prefix, 1),
              (std::vector<VertexId>{0, n}));
    for (const unsigned chunks : {2u, 8u, 32u}) {
      const std::vector<VertexId> bounds =
          internal::AnchorChunkBounds(prefix, chunks);
      ASSERT_EQ(bounds.size(), chunks + 1u) << name;
      EXPECT_EQ(bounds.front(), 0u) << name;
      EXPECT_EQ(bounds.back(), n) << name;
      for (unsigned c = 0; c < chunks; ++c) {
        ASSERT_LE(bounds[c], bounds[c + 1]) << name << " chunk " << c;
        const std::uint64_t chunk_work =
            std::accumulate(work.begin() + bounds[c],
                            work.begin() + bounds[c + 1], std::uint64_t{0});
        EXPECT_LE(chunk_work, total / chunks + 1 + widest)
            << name << " chunk " << c << " of " << chunks;
      }
    }
  }
}

TEST(ParallelDecompose, CountingAndIndexFedPipelinesMatchSequential) {
  // Parallel counting + parallel BE build + (for kPC) parallel cascade
  // recounts behind the ordinary Decompose() entry point.  The peel itself
  // is sequential over a byte-identical index, so even the support-update
  // counter must match.
  DecomposeOptions sequential;
  sequential.parallel.num_threads = 1;
  for (const std::string& name : DatasetNames()) {
    const BipartiteGraph g = MakeDataset(name, kSuiteScale);
    const BitrussResult expect = Decompose(g, sequential);
    for (const unsigned threads : kThreadCounts) {
      DecomposeOptions parallel = sequential;
      parallel.parallel.num_threads = threads;
      const BitrussResult got = Decompose(g, parallel);
      ASSERT_FALSE(got.timed_out) << name << " x" << threads;
      EXPECT_EQ(got.phi, expect.phi) << name << " x" << threads;
      EXPECT_EQ(got.original_support, expect.original_support) << name;
      EXPECT_EQ(got.total_butterflies, expect.total_butterflies) << name;
      EXPECT_EQ(got.counters.support_updates,
                expect.counters.support_updates)
          << name << " x" << threads;
      if (threads != 8) continue;
      // Run-to-run determinism at the widest pool.
      const BitrussResult again = Decompose(g, parallel);
      EXPECT_EQ(again.phi, got.phi) << name;
      EXPECT_EQ(again.original_support, got.original_support) << name;
      EXPECT_EQ(again.total_butterflies, got.total_butterflies) << name;
      EXPECT_EQ(again.counters.support_updates, got.counters.support_updates)
          << name;
    }
  }

  for (const char* name : {"Twitter", "D-style"}) {
    const BipartiteGraph g = MakeDataset(name, kSuiteScale);
    for (const Algorithm algorithm :
         {Algorithm::kBUPlusPlus, Algorithm::kPC}) {
      DecomposeOptions options = sequential;
      options.algorithm = algorithm;
      const BitrussResult expect = Decompose(g, options);
      options.parallel.num_threads = 4;
      const BitrussResult got = Decompose(g, options);
      EXPECT_EQ(got.phi, expect.phi) << name;
      EXPECT_EQ(got.original_support, expect.original_support) << name;
      EXPECT_EQ(got.total_butterflies, expect.total_butterflies) << name;
    }
  }

  DecomposeOptions four = sequential;
  four.parallel.num_threads = 4;
  const BitrussResult empty = Decompose(BipartiteGraph(2, 2, {}), four);
  EXPECT_TRUE(empty.phi.empty());
  EXPECT_EQ(empty.total_butterflies, 0u);
  // One butterfly: all four edges have phi 1.
  const BipartiteGraph square(2, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  const BitrussResult one = Decompose(square, four);
  EXPECT_EQ(one.phi, (std::vector<SupportT>{1, 1, 1, 1}));
  EXPECT_EQ(one.total_butterflies, 1u);
}

}  // namespace
}  // namespace bitruss
