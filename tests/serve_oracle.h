// Shared plumbing for the serving-layer suites (test_serve.cc,
// test_persist.cc, test_telemetry_contract.cc): a deterministic update
// stream, a from-scratch replay + Decompose() check of a published snapshot
// against it, and a scoped temp directory.

#ifndef BITRUSS_TESTS_SERVE_ORACLE_H_
#define BITRUSS_TESTS_SERVE_ORACLE_H_

#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/decompose.h"
#include "dynamic/dynamic_graph.h"
#include "graph/bipartite_graph.h"
#include "serve/bitruss_service.h"
#include "util/random.h"

namespace bitruss {
namespace serve_oracle {

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

// Deterministic mixed insert/delete stream, valid under FIFO application:
// every op is simulated while generating, so a delete always names an edge
// that is live at its position in the stream.
inline std::vector<EdgeUpdate> MakeStream(const BipartiteGraph& seed,
                                          int updates,
                                          std::uint64_t rng_seed) {
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
  ops.reserve(updates);
  while (static_cast<int>(ops.size()) < updates) {
    if (!live.empty() && rng.NextBool(0.5)) {
      const std::size_t pick = rng.Below(live.size());
      const auto [u, l] = live[pick];
      EXPECT_TRUE(sim.DeleteEdge(sim.FindEdge(u, sim.NumUpper() + l)).ok());
      ops.push_back({EdgeUpdate::Kind::kDelete, u, l});
      live[pick] = live.back();
      live.pop_back();
    } else {
      const auto u = static_cast<VertexId>(rng.Below(sim.NumUpper()));
      const auto l = static_cast<VertexId>(rng.Below(sim.NumLower()));
      if (!sim.InsertEdge(u, l).ok()) continue;  // already present; reroll
      ops.push_back({EdgeUpdate::Kind::kInsert, u, l});
      live.emplace_back(u, l);
    }
  }
  return ops;
}

// Replays the first `count` ops onto a fresh dynamic graph, compacting the
// slot table every `compact_every` ops (0 = never) like the writer does.
inline DynamicBipartiteGraph ReplayPrefix(const BipartiteGraph& seed,
                                          const std::vector<EdgeUpdate>& ops,
                                          std::uint64_t count,
                                          std::uint64_t compact_every = 0) {
  DynamicBipartiteGraph replay(seed);
  std::uint64_t since_compact = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const EdgeUpdate& op = ops[i];
    if (op.kind == EdgeUpdate::Kind::kInsert) {
      EXPECT_TRUE(replay.InsertEdge(op.upper_local, op.lower_local).ok());
    } else {
      const EdgeId slot =
          replay.FindEdge(op.upper_local, replay.NumUpper() + op.lower_local);
      EXPECT_NE(slot, kInvalidEdge);
      EXPECT_TRUE(replay.DeleteEdge(slot).ok());
    }
    if (compact_every != 0 && ++since_compact >= compact_every) {
      replay.CompactSlots();
      since_compact = 0;
    }
  }
  return replay;
}

// From-scratch oracle at a snapshot's version: replay the first
// `applied_updates` ops of the stream (the writer applies FIFO) with the
// same compaction cadence, then compare the snapshot's entire state slot
// for slot against an independent Snapshot() + Decompose() of the replay.
inline void ExpectSnapshotMatchesOracle(const PhiSnapshot& snap,
                                        const BipartiteGraph& seed,
                                        const std::vector<EdgeUpdate>& ops,
                                        std::uint64_t compact_every) {
  ASSERT_LE(snap.applied_updates, ops.size());
  const DynamicBipartiteGraph replay =
      ReplayPrefix(seed, ops, snap.applied_updates, compact_every);
  ASSERT_EQ(snap.num_slots, replay.NumSlots());
  ASSERT_EQ(snap.num_edges, replay.NumEdges());
  ASSERT_EQ(snap.num_butterflies, replay.NumButterflies());

  const GraphSnapshot compacted = replay.Snapshot();
  const BitrussResult oracle = Decompose(compacted.graph);
  std::vector<SupportT> phi_by_slot(replay.NumSlots(), 0);
  std::vector<SupportT> support_by_slot(replay.NumSlots(), 0);
  for (EdgeId e = 0; e < compacted.graph.NumEdges(); ++e) {
    phi_by_slot[compacted.slot_of_edge[e]] = oracle.phi[e];
    support_by_slot[compacted.slot_of_edge[e]] = compacted.supports[e];
  }
  for (EdgeId slot = 0; slot < replay.NumSlots(); ++slot) {
    ASSERT_EQ(snap.IsLive(slot), replay.IsLive(slot)) << "slot " << slot;
    ASSERT_EQ(snap.Phi(slot), phi_by_slot[slot]) << "slot " << slot;
    ASSERT_EQ(snap.SupportOf(slot), support_by_slot[slot]) << "slot " << slot;
  }
}

}  // namespace serve_oracle
}  // namespace bitruss

#endif  // BITRUSS_TESTS_SERVE_ORACLE_H_
