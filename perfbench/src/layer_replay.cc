#include <sys/stat.h>

#include <unordered_map>

#include "core/decompose.h"
#include "dynamic/incremental_bitruss.h"
#include "persist/snapshot_io.h"
#include "persist/wal.h"
#include "phases.h"

namespace perfbench {

using bitruss::DynamicBipartiteGraph;
using bitruss::EdgeId;
using bitruss::EdgeUpdate;

namespace {

// Snapshot writes and loads are repeated until about this many seconds
// are spent (at least once, at most kSnapshotReps times).
constexpr double kSnapshotSeconds = 0.5;
constexpr int kSnapshotReps = 21;
constexpr std::uint64_t kSyncEvery = 64;

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Decompose() of the final snapshot graph, by its edge ids.  When that
/// graph is the start graph plus edges with a degree-1 endpoint (always so
/// for a fringe stream), the start graph's decomposition already gives it:
/// such an edge lies in no butterfly and takes none from another edge, so
/// every start edge keeps its phi and every added edge has phi 0.  That
/// spares decompose-tracker its costliest call.
std::vector<bitruss::SupportT> FinalPhi(RunContext& ctx,
                                        const DecomposeOutcome& start,
                                        const bitruss::BipartiteGraph& final,
                                        std::uint32_t parent) {
  const auto key = [](bitruss::VertexId u, bitruss::VertexId l) {
    return (static_cast<std::uint64_t>(u) << 32) | l;
  };
  std::unordered_map<std::uint64_t, EdgeId> start_edge;
  start_edge.reserve(start.graph.NumEdges());
  for (EdgeId e = 0; e < start.graph.NumEdges(); ++e) {
    start_edge.emplace(key(start.graph.EdgeUpper(e), start.graph.EdgeLower(e)),
                       e);
  }
  std::vector<bitruss::SupportT> phi(final.NumEdges(), 0);
  std::size_t kept = 0;
  bool derived = true;
  for (EdgeId e = 0; derived && e < final.NumEdges(); ++e) {
    const bitruss::VertexId u = final.EdgeUpper(e);
    const bitruss::VertexId l = final.EdgeLower(e);
    const auto it = start_edge.find(key(u, l));
    if (it != start_edge.end()) {
      phi[e] = start.result.phi[it->second];
      ++kept;
    } else {
      derived = final.Degree(u) == 1 || final.Degree(l) == 1;
    }
  }
  if (derived && kept == start.graph.NumEdges()) return phi;
  bitruss::DecomposeOptions options;
  options.parallel.num_threads = 1;
  ScopedSpan span(ctx.trace, "core.Decompose", parent);
  return bitruss::Decompose(final, options).phi;
}

}  // namespace

DynamicBipartiteGraph CheckFinalPhi(RunContext& ctx,
                                    const DecomposeOutcome& start,
                                    const ServingOutcome& serving) {
  ScopedSpan phase(ctx.trace, "phase.gate", ctx.run_span);
  Report& report = ctx.report;
  DynamicBipartiteGraph graph(start.graph);
  std::int64_t edit_ns = 0;
  for (const EdgeUpdate& op : serving.accepted) {
    const std::int64_t s = NowNs();
    if (op.kind == EdgeUpdate::Kind::kInsert) {
      (void)graph.InsertEdge(op.upper_local, op.lower_local);
    } else {
      const EdgeId slot =
          graph.FindEdge(op.upper_local, graph.NumUpper() + op.lower_local);
      if (slot != bitruss::kInvalidEdge) (void)graph.DeleteEdge(slot);
    }
    const std::int64_t e = NowNs();
    edit_ns += e - s;
    if (ctx.trace != nullptr) {
      ctx.trace->Add(op.kind == EdgeUpdate::Kind::kInsert
                         ? "dynamic.graph.InsertEdge"
                         : "dynamic.graph.DeleteEdge",
                     phase.id(), s, e);
    }
  }
  report.Set("dynamic.edit_s", Seconds(edit_ns), "s");

  bitruss::GraphSnapshot snapshot;
  const double csr_s =
      Repeat(kSnapshotSeconds, ctx.trace != nullptr ? kSnapshotReps : 1, [&] {
        return TimedCall(ctx, "dynamic.Snapshot", phase.id(),
                         [&] { snapshot = graph.Snapshot(); });
      }).wall_s;
  report.Set("dynamic.snapshot_csr_ms", csr_s * 1e3, "ms");

  const std::vector<bitruss::SupportT> oracle =
      FinalPhi(ctx, start, snapshot.graph, phase.id());
  const bitruss::PhiSnapshot& served = *serving.final_snapshot;
  bool same = served.num_edges == snapshot.graph.NumEdges();
  for (EdgeId e = 0; same && e < snapshot.graph.NumEdges(); ++e) {
    const EdgeId slot = snapshot.slot_of_edge[e];
    same = served.IsLive(slot) && served.Phi(slot) == oracle[e];
  }
  if (!same) {
    report.Mismatch("final served phi differs from Snapshot() + Decompose()");
  }
  return graph;
}

DynamicReplay ReplayIncremental(RunContext& ctx,
                                const bitruss::BipartiteGraph& start,
                                const ServingOutcome& serving) {
  ScopedSpan phase(ctx.trace, "phase.dynamic_replay", ctx.run_span);
  Report& report = ctx.report;
  bitruss::IncrementalBitrussOptions options;
  options.decompose.parallel.num_threads = 1;
  std::unique_ptr<bitruss::IncrementalBitruss> inc;
  {
    ScopedSpan span(ctx.trace, "dynamic.IncrementalBitruss", phase.id());
    inc = std::make_unique<bitruss::IncrementalBitruss>(start, options);
  }

  DynamicReplay out;
  out.update_ns.reserve(serving.accepted.size());
  Samples local_ns;
  Samples fallback_ns;
  for (const EdgeUpdate& op : serving.accepted) {
    const bool insert = op.kind == EdgeUpdate::Kind::kInsert;
    const EdgeId slot =
        insert ? bitruss::kInvalidEdge
               : inc->Graph().FindEdge(op.upper_local,
                                       inc->Graph().NumUpper() + op.lower_local);
    const std::int64_t s = NowNs();
    bool applied = false;
    if (insert) {
      applied = inc->InsertEdge(op.upper_local, op.lower_local).ok();
    } else if (slot != bitruss::kInvalidEdge) {
      applied = inc->DeleteEdge(slot).ok();
    }
    const std::int64_t e = NowNs();
    out.update_ns.push_back(e - s);
    if (ctx.trace != nullptr) {
      ctx.trace->Add(insert ? "dynamic.InsertEdge" : "dynamic.DeleteEdge",
                     phase.id(), s, e);
    }
    if (applied && inc->LastUpdateStats().fallback) {
      fallback_ns.Add(static_cast<std::uint64_t>(e - s));
    } else {
      local_ns.Add(static_cast<std::uint64_t>(e - s));
    }
  }
  if (inc->PhiBySlot() != serving.final_snapshot->phi) {
    report.Mismatch("standalone IncrementalBitruss phi differs from served phi");
  }

  const double local_s = Seconds(static_cast<std::int64_t>(local_ns.Sum()));
  const double fallback_s =
      Seconds(static_cast<std::int64_t>(fallback_ns.Sum()));
  const auto updates = static_cast<double>(serving.accepted.size());
  report.Set("dynamic.apply_s", local_s + fallback_s, "s");
  report.Set("dynamic.local_count", static_cast<double>(local_ns.Count()),
             "count");
  report.Set("dynamic.local_s", local_s, "s");
  report.SetQuantile("dynamic.local_p99_us", local_ns, 0.99, 1e3, "us");
  report.Set("dynamic.fallback_count",
             static_cast<double>(fallback_ns.Count()), "count");
  report.Set("dynamic.fallback_s", fallback_s, "s");
  report.SetQuantile("dynamic.fallback_p50_ms", fallback_ns, 0.50, 1e6, "ms");
  report.Set("dynamic.fallback_share",
             static_cast<double>(fallback_ns.Count()) / updates, "ratio");
  report.Set("dynamic.enumerated_butterflies",
             static_cast<double>(inc->Totals().enumerated_butterflies),
             "count");
  report.Set("dynamic.phi_changes",
             static_cast<double>(inc->Totals().phi_changes), "count");
  return out;
}

PersistReplay ReplayPersist(RunContext& ctx, const DynamicBipartiteGraph& final_graph,
                            const ServingOutcome& serving) {
  ScopedSpan phase(ctx.trace, "phase.persist_replay", ctx.run_span);
  Report& report = ctx.report;
  PersistReplay out;
  const std::string wal_dir = ctx.work_dir + "/scratch-wal";
  ResetDir(wal_dir);

  bitruss::persist::WalOptions wal_options;
  wal_options.fsync_policy = bitruss::persist::FsyncPolicy::kEveryPublish;
  auto opened = bitruss::persist::WalWriter::Open(wal_dir, 1, wal_options);
  if (!opened.ok()) {
    report.Mismatch("scratch WalWriter::Open: " + opened.status().ToString());
    return out;
  }
  bitruss::persist::WalWriter& wal = *opened.value();
  Samples append_ns;
  Samples sync_ns;
  std::uint64_t seq = 0;
  for (const EdgeUpdate& op : serving.accepted) {
    bitruss::persist::WalRecord record;
    record.seq = ++seq;
    record.kind = op.kind == EdgeUpdate::Kind::kInsert ? 0 : 1;
    record.upper_local = op.upper_local;
    record.lower_local = op.lower_local;
    const std::int64_t s = NowNs();
    bitruss::Status status = wal.Append(record);
    std::int64_t e = NowNs();
    append_ns.Add(static_cast<std::uint64_t>(e - s));
    if (ctx.trace != nullptr) {
      ctx.trace->Add("persist.WalWriter::Append", phase.id(), s, e);
    }
    std::int64_t cost = e - s;
    if (status.ok() && seq % kSyncEvery == 0) {
      const std::int64_t s2 = NowNs();
      status = wal.Sync();
      e = NowNs();
      sync_ns.Add(static_cast<std::uint64_t>(e - s2));
      if (ctx.trace != nullptr) {
        ctx.trace->Add("persist.WalWriter::Sync", phase.id(), s2, e);
      }
      cost += e - s2;
    }
    out.append_ns.push_back(cost);
    if (!status.ok()) {
      report.Mismatch("scratch WAL write: " + status.ToString());
      return out;
    }
  }
  if (!wal.Sync().ok()) report.Mismatch("scratch WAL final Sync failed");
  out.records = seq;
  const auto records = static_cast<double>(seq);
  report.SetQuantile("persist.wal_append_p50_us", append_ns, 0.50, 1e3, "us");
  report.SetQuantile("persist.wal_append_p99_us", append_ns, 0.99, 1e3, "us");
  report.SetQuantile("persist.wal_sync_p50_ms", sync_ns, 0.50, 1e6, "ms");
  report.Set("persist.wal_bytes_per_update",
             static_cast<double>(wal.BytesAppended()) / records, "B");
  report.Set("persist.fsyncs_per_1k_updates",
             static_cast<double>(wal.Fsyncs()) * 1000.0 / records, "count");
  opened.value().reset();

  bitruss::persist::WalReplayStats replay_stats;
  const std::int64_t rs = NowNs();
  bitruss::Status replayed;
  {
    ScopedSpan span(ctx.trace, "persist.ReplayWal", phase.id());
    replayed = bitruss::persist::ReplayWal(
        wal_dir, 0,
        [](const bitruss::persist::WalRecord&) { return bitruss::OkStatus(); },
        &replay_stats);
  }
  out.replay_parse_s = Seconds(NowNs() - rs);
  if (!replayed.ok() || replay_stats.records_replayed != seq) {
    report.Mismatch("scratch ReplayWal did not return every record");
  }
  report.Set("persist.replay_parse_s", out.replay_parse_s, "s");
  report.Set("persist.recovered_records",
             static_cast<double>(replay_stats.records_replayed), "count");
  RemoveDir(wal_dir);

  // The final state as the service persists it: slot table plus phi.
  bitruss::DynamicGraphState graph_state = final_graph.ExportState();
  bitruss::persist::StateSnapshot state;
  state.applied = seq;
  state.num_upper = graph_state.num_upper;
  state.num_lower = graph_state.num_lower;
  state.num_butterflies = graph_state.num_butterflies;
  state.upper = std::move(graph_state.upper);
  state.lower = std::move(graph_state.lower);
  state.support = std::move(graph_state.support);
  state.phi = serving.final_snapshot->phi;
  state.free_slots = std::move(graph_state.free_slots);

  const std::string snap_dir = ctx.work_dir + "/scratch-snapshot";
  ResetDir(snap_dir);
  bool io_ok = true;
  out.snapshot_write_s = Repeat(kSnapshotSeconds, kSnapshotReps, [&] {
    return TimedCall(ctx, "persist.WriteSnapshotFile", phase.id(), [&] {
      io_ok = bitruss::persist::WriteSnapshotFile(snap_dir, state).ok() && io_ok;
    });
  }).wall_s;
  const bitruss::Status not_loaded(bitruss::StatusCode::kInternal, "unread");
  bitruss::StatusOr<bitruss::persist::StateSnapshot> loaded = not_loaded;
  out.snapshot_load_s = Repeat(kSnapshotSeconds, kSnapshotReps, [&] {
    loaded = not_loaded;  // frees the previous load outside the timed call
    const CallTime t = TimedCall(ctx, "persist.LoadNewestSnapshot", phase.id(), [&] {
      loaded = bitruss::persist::LoadNewestSnapshot(snap_dir);
    });
    io_ok = loaded.ok() && loaded.value().phi == state.phi && io_ok;
    return t;
  }).wall_s;
  if (!io_ok) report.Mismatch("scratch snapshot write/load round trip failed");
  struct stat st {};
  const std::string path = bitruss::persist::StampedPath(
      snap_dir, "snapshot-", state.applied, ".snap");
  ::stat(path.c_str(), &st);
  report.Set("persist.snapshot_write_ms", out.snapshot_write_s * 1e3, "ms");
  report.Set("persist.snapshot_load_ms", out.snapshot_load_s * 1e3, "ms");
  report.Set("persist.snapshot_bytes", static_cast<double>(st.st_size), "B");
  RemoveDir(snap_dir);
  return out;
}

}  // namespace perfbench
