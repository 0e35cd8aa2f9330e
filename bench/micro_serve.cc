// Google-benchmark micro suite: BitrussService snapshot reads — TopKPhi,
// a Snapshot() acquisition with a point Phi read (at 1 and 2 threads), and
// PhiHistogram — over a service seeded with a 30k-edge tracker-shaped
// Chung-Lu graph, and the WAL append behind every Submit.  The *TopLast
// variants relabel the upper vertices so that the highest-phi edges take
// the last slots of the table, the layout where a slot scan for the top k
// walks every slot.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/decompose.h"
#include "gen/chung_lu.h"
#include "persist/wal.h"
#include "serve/bitruss_service.h"

namespace {

using namespace bitruss;

// The tracker shape of the serving benchmark: 5000 x 2400, 30k edges.
BipartiteGraph TrackerGraph() {
  ChungLuParams p;
  p.num_upper = 5000;
  p.num_lower = 2400;
  p.num_edges = 30000;
  p.upper_exponent = 0.90;
  p.lower_exponent = 0.80;
  p.seed = 12345;
  return GenerateChungLu(p);
}

// `g` with its upper vertices renumbered by ascending largest phi among
// their edges, so the seed's slot order puts the top-phi edges last.
BipartiteGraph TopPhiLast(const BipartiteGraph& g) {
  const std::vector<SupportT> phi = Decompose(g).phi;
  std::vector<SupportT> upper_max(g.NumUpper(), 0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    SupportT& max = upper_max[g.EdgeUpper(e)];
    max = std::max(max, phi[e]);
  }
  std::vector<VertexId> order(g.NumUpper());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return upper_max[a] < upper_max[b];
  });
  std::vector<VertexId> rank(g.NumUpper());
  for (VertexId i = 0; i < g.NumUpper(); ++i) rank[order[i]] = i;
  std::vector<std::pair<VertexId, VertexId>> edges = g.EdgeList();
  for (auto& [upper, lower] : edges) upper = rank[upper];
  return BipartiteGraph(g.NumUpper(), g.NumLower(), std::move(edges));
}

// One service per layout, built on first use and shared by every run.
const BitrussService& Service(bool top_last) {
  static const BipartiteGraph seed = TrackerGraph();
  if (top_last) {
    static const BitrussService service(TopPhiLast(seed));
    return service;
  }
  static const BitrussService service(seed);
  return service;
}

void TopKPhi(benchmark::State& state, bool top_last) {
  const auto snap = Service(top_last).Snapshot();
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap->TopKPhi(k));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_TopKPhi(benchmark::State& state) { TopKPhi(state, false); }
BENCHMARK(BM_TopKPhi)->Arg(8);

void BM_TopKPhiTopLast(benchmark::State& state) { TopKPhi(state, true); }
BENCHMARK(BM_TopKPhiTopLast)->Arg(8);

void BM_SnapshotPhi(benchmark::State& state) {
  const BitrussService& service = Service(false);
  const EdgeId slots = service.Snapshot()->num_slots;
  EdgeId slot = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Snapshot()->Phi(slot));
    slot = slot + 7919 < slots ? slot + 7919 : slot + 7919 - slots;
  }
  state.SetItemsProcessed(state.iterations());
}
// At 2 threads both readers share the snapshot's reference count line.
BENCHMARK(BM_SnapshotPhi)->Threads(1)->Threads(2);

void BM_PhiHistogram(benchmark::State& state) {
  const auto snap = Service(false).Snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap->PhiHistogram());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhiHistogram);

// WalWriter::Append into a scratch directory under /tmp, one record per
// iteration.  Under kEveryPublish the loop also syncs every 64 records, as
// perfbench's WAL replay does; under kOsBuffered it never syncs.  Every
// 2^16 records the segment is rotated out and deleted, untimed, so the
// directory stays small.
void BM_WalAppend(benchmark::State& state, persist::FsyncPolicy policy) {
  char dir_template[] = "/tmp/bitruss_micro_wal_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const std::string dir = dir_template;
  {
    persist::WalOptions options;
    options.fsync_policy = policy;
    auto opened = persist::WalWriter::Open(dir, 1, options);
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    persist::WalWriter& wal = *opened.value();
    std::uint64_t seq = 0;
    for (auto _ : state) {
      persist::WalRecord record;
      record.seq = ++seq;
      record.kind = static_cast<std::uint8_t>(seq & 1);
      record.upper_local = static_cast<std::uint32_t>(seq % 5000);
      record.lower_local = static_cast<std::uint32_t>(seq % 2400);
      Status st = wal.Append(record);
      if (st.ok() && policy == persist::FsyncPolicy::kEveryPublish &&
          seq % 64 == 0) {
        st = wal.Sync();
      }
      if (st.ok() && seq % (1 << 16) == 0) {
        state.PauseTiming();
        st = wal.Rotate();
        if (st.ok()) st = wal.TruncateThrough(seq).status();
        state.ResumeTiming();
      }
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        break;
      }
    }
    state.SetItemsProcessed(state.iterations());
  }
  for (const std::uint64_t first : persist::ListWalSegments(dir)) {
    ::unlink(persist::StampedPath(dir, "wal-", first, ".seg").c_str());
  }
  ::rmdir(dir.c_str());
}
BENCHMARK_CAPTURE(BM_WalAppend, EveryPublish,
                  persist::FsyncPolicy::kEveryPublish);
BENCHMARK_CAPTURE(BM_WalAppend, OsBuffered, persist::FsyncPolicy::kOsBuffered);

}  // namespace

BENCHMARK_MAIN();
