// BitrussService's durability wiring: the entry points that build or
// recover the state a service starts from (StartFresh, Restore, Recover),
// the checkpoint (WriteDurableSnapshot), and the conversions between the
// in-memory state and the WAL and snapshot file formats.

#include "serve/bitruss_service.h"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace bitruss {

namespace {
using Clock = std::chrono::steady_clock;

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) return OkStatus();
  return InternalError("mkdir(" + dir + "): " + std::strerror(errno));
}

// WalRecord -> EdgeUpdate: the log stores kind 0 for insert, 1 for delete.
EdgeUpdate ToEdgeUpdate(const persist::WalRecord& record) {
  return {record.kind == 0 ? EdgeUpdate::Kind::kInsert
                           : EdgeUpdate::Kind::kDelete,
          record.upper_local, record.lower_local};
}

// IncrementalBitruss <-> StateSnapshot: the full image at absolute update
// count `applied`, and its restore against the seed's vertex universe.
persist::StateSnapshot ToState(const IncrementalBitruss& inc,
                               std::uint64_t applied) {
  DynamicGraphState graph = inc.Graph().ExportState();
  persist::StateSnapshot state;
  state.applied = applied;
  state.num_upper = graph.num_upper;
  state.num_lower = graph.num_lower;
  state.num_butterflies = graph.num_butterflies;
  state.upper = std::move(graph.upper);
  state.lower = std::move(graph.lower);
  state.support = std::move(graph.support);
  state.phi = inc.PhiBySlot();
  state.free_slots = std::move(graph.free_slots);
  return state;
}

StatusOr<IncrementalBitruss> FromState(
    const BipartiteGraph& seed, persist::StateSnapshot snap,
    const IncrementalBitrussOptions& options) {
  if (snap.num_upper != seed.NumUpper() || snap.num_lower != seed.NumLower()) {
    return DataLossError("durable snapshot vertex universe (" +
                         std::to_string(snap.num_upper) + "x" +
                         std::to_string(snap.num_lower) +
                         ") does not match the seed graph (" +
                         std::to_string(seed.NumUpper()) + "x" +
                         std::to_string(seed.NumLower()) + ")");
  }
  DynamicGraphState graph_state;
  graph_state.num_upper = snap.num_upper;
  graph_state.num_lower = snap.num_lower;
  graph_state.num_butterflies = snap.num_butterflies;
  graph_state.upper = std::move(snap.upper);
  graph_state.lower = std::move(snap.lower);
  graph_state.support = std::move(snap.support);
  graph_state.free_slots = std::move(snap.free_slots);
  StatusOr<DynamicBipartiteGraph> graph =
      DynamicBipartiteGraph::FromState(graph_state);
  if (!graph.ok()) return graph.status();
  return IncrementalBitruss(std::move(graph).value(), std::move(snap.phi),
                            options);
}
}  // namespace

persist::WalRecord BitrussService::ToWalRecord(const EdgeUpdate& update,
                                               std::uint64_t seq) {
  persist::WalRecord record;
  record.seq = seq;
  record.kind = update.kind == EdgeUpdate::Kind::kInsert ? 0 : 1;
  record.upper_local = update.upper_local;
  record.lower_local = update.lower_local;
  return record;
}

BitrussService::RestoredState BitrussService::StartFresh(
    const BipartiteGraph& seed, const BitrussServiceOptions& options) {
  const std::string& dir = options.persist.dir;
  if (dir.empty()) {
    return RestoredState(IncrementalBitruss(seed, options.incremental));
  }
  // Construction failures throw: unlike a mid-stream disk error there is
  // no accepted state worth serving read-only yet, and silently running
  // without the durability the caller configured would be worse.
  if (Status st = EnsureDir(dir); !st.ok()) {
    throw std::invalid_argument(st.message());
  }
  if (persist::HoldsDurableState(dir)) {
    throw std::invalid_argument(
        "persist dir '" + dir +
        "' holds prior WAL/snapshot state; use BitrussService::Recover");
  }
  RecoveryStats stats;
  StatusOr<RestoredState> state = Restore(seed, options, &stats);
  if (!state.ok()) throw std::runtime_error(state.status().message());
  if (state.value().wal == nullptr) {
    throw std::runtime_error(state.value().degraded_reason);
  }
  return std::move(state).value();
}

void BitrussService::WriteDurableSnapshot() {
  const std::string& dir = options_.persist.dir;
  const std::uint64_t applied = recovered_base_ + applied_.Value();
  if (Status st = persist::WriteSnapshotFile(dir, ToState(inc_, applied));
      !st.ok()) {
    persist_snapshot_failures_->Inc();
    EnterDegraded("durable snapshot failed: " + st.message());
    return;
  }
  persist_snapshots_->Inc();
  // A rewrite at the last checkpoint's count moves nothing retention uses.
  if (applied == checkpoint_) return;
  // Retention reaches back to the previous checkpoint: should the snapshot
  // just written turn out damaged, recovery falls back to that one and
  // replays the WAL after it.
  const std::uint64_t previous = std::exchange(checkpoint_, applied);
  if (Status st = wal_->Rotate(); !st.ok()) {
    EnterDegraded("WAL rotation failed: " + st.message());
    return;
  }
  const StatusOr<int> removed = wal_->TruncateThrough(previous);
  if (!removed.ok()) {
    EnterDegraded("WAL truncation failed: " + removed.status().message());
    return;
  }
  persist_wal_truncated_segments_->Inc(
      static_cast<std::uint64_t>(removed.value()));
  persist::RetainSnapshots(dir, previous, applied);
}

StatusOr<BitrussService::RestoredState> BitrussService::Restore(
    const BipartiteGraph& seed, const BitrussServiceOptions& options,
    RecoveryStats* stats) {
  const std::string& dir = options.persist.dir;
  *stats = RecoveryStats{};
  // 1. Newest intact durable snapshot — or, when none survives, the seed
  // (full Decompose), leaning entirely on WAL replay.
  StatusOr<persist::StateSnapshot> loaded =
      persist::LoadNewestSnapshot(dir, &stats->corrupt_snapshots_skipped);
  if (!loaded.ok() && loaded.status().code() != StatusCode::kNotFound) {
    return loaded.status();
  }
  stats->from_seed = !loaded.ok();
  const std::uint64_t base = stats->snapshot_applied =
      loaded.ok() ? loaded.value().applied : 0;
  StatusOr<IncrementalBitruss> inc =
      stats->from_seed
          ? StatusOr<IncrementalBitruss>(
                IncrementalBitruss(seed, options.incremental))
          : FromState(seed, std::move(loaded).value(), options.incremental);
  if (!inc.ok()) return inc.status();

  // 2. Collect the WAL suffix, repairing (physically truncating) a torn
  // final tail; mid-log corruption or sequence gaps surface as kDataLoss.
  // Then apply it as one batch through the writer's own routine, so the
  // whole replay recomputes at most once.  A record that no longer applies
  // (duplicate insert, vanished delete target) is a stream-level no-op,
  // exactly as it was for the original writer.
  std::vector<EdgeUpdate> suffix;
  persist::WalReplayStats replay;
  Status replayed = persist::ReplayWal(
      dir, /*after_seq=*/base,
      [&suffix](const persist::WalRecord& record) {
        suffix.push_back(ToEdgeUpdate(record));
        return OkStatus();
      },
      &replay, /*repair_torn_tail=*/true);
  if (!replayed.ok()) return replayed;
  (void)inc.value().ApplyBatch(suffix);
  stats->wal_replayed = replay.records_replayed;
  stats->torn_records_discarded = replay.torn_records_discarded;
  RestoredState state(std::move(inc).value(), base + replay.records_replayed);
  state.loaded = base;

  // 3. Reopen the WAL at the next sequence, beside the segments just
  // replayed; the constructor's checkpoint then covers everything
  // restored.  A failed open degrades a recovery instead of aborting it —
  // the restored state is intact and worth serving read-only.
  persist::WalOptions wal_options;
  wal_options.fsync_policy = options.persist.fsync_policy;
  StatusOr<std::unique_ptr<persist::WalWriter>> opened =
      persist::WalWriter::Open(dir, state.applied + 1, wal_options);
  if (opened.ok()) {
    state.wal = std::move(opened).value();
  } else {
    state.degraded_reason = "opening the WAL in '" + dir +
                            "' failed: " + opened.status().message();
  }
  return StatusOr<RestoredState>(std::move(state));
}

StatusOr<std::unique_ptr<BitrussService>> BitrussService::Recover(
    const BipartiteGraph& seed, BitrussServiceOptions options,
    RecoveryStats* stats) {
  const Clock::time_point start = Clock::now();
  if (options.persist.dir.empty()) {
    return InvalidArgumentError("Recover requires options.persist.dir");
  }
  if (Status st = EnsureDir(options.persist.dir); !st.ok()) return st;
  RecoveryStats local;
  RecoveryStats& out = stats != nullptr ? *stats : local;
  StatusOr<RestoredState> state = Restore(seed, options, &out);
  if (!state.ok()) return state.status();
  std::unique_ptr<BitrussService> service(
      new BitrussService(std::move(state).value(), std::move(options)));

  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  auto& registry = obs::MetricsRegistry::Default();
  registry.GetCounter("bitruss_recovery_replayed_total")->Inc(out.wal_replayed);
  registry.GetCounter("bitruss_recovery_torn_records_total")
      ->Inc(out.torn_records_discarded);
  registry
      .GetHistogram("bitruss_recovery_seconds",
                    obs::ExponentialBuckets(1e-4, 2.0, 20))
      ->Observe(out.seconds);
  return service;
}

}  // namespace bitruss
