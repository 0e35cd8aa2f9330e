// Concurrent bitruss serving layer: many snapshot readers, one writer.
//
// A single writer thread owns the `IncrementalBitruss` state and applies
// queued edge updates in batches, periodically freezing the maintained
// phi into an immutable `PhiSnapshot` published through an atomic
// shared_ptr.  Readers never touch the mutable state — every query (point
// phi/support, top-k, histogram) runs against the snapshot current at its
// start:
//
//     Submit()  ->  [bounded ingest queue]  ->  writer thread
//                                                |  IncrementalBitruss::
//                                                |  ApplyBatch(updates)
//                                                v
//                              publishes PhiSnapshot (version v),
//                              then counts it (publish count = v)
//                                                |
//        Snapshot()/Phi()/TopKPhi()  <--  this thread's cached snapshot
//                                         if its version is the count,
//                                         else atomic_load(shared_ptr)
//
// Batches.  The writer pops the queued updates up to the next
// count-triggered publish (`publish_every_updates`), compaction
// (`compact_every_updates`) or durable snapshot (`snapshot_every_updates`),
// whichever comes first — the whole queue when none is set — and applies
// them with one IncrementalBitruss::ApplyBatch, which recomputes at most
// once.  Publication, compaction and snapshot points and slot numbering are
// therefore the same as applying one update at a time; the time trigger
// (`publish_interval_ms`) fires only between batches.
//
// There is one way in: the constructor is Recover() from an empty
// directory (or just the seed without PersistOptions::dir), WAL replay
// applies the whole recovered suffix as one ApplyBatch, and one private
// constructor starts the service for both entry points.
//
// Concurrency contract.
//   * Readers are never blocked by the writer: acquiring the current
//     snapshot takes no service mutex.  Each thread keeps a non-owning
//     (weak_ptr) entry for the snapshot it acquired last; when the entry's
//     service and version match the acquire-loaded publish count, the
//     acquisition is that count load plus the weak_ptr lock.  Otherwise it
//     is one atomic shared_ptr load (libstdc++ serves it from a mutex
//     pool), which refills the entry.  A held snapshot stays valid and
//     immutable for as long as the caller keeps the shared_ptr, across any
//     number of later publications, compactions, or service shutdown, and
//     a snapshot no caller holds is never kept alive by the cache.
//   * Reads are *bounded-stale*, not linearizable: a snapshot lags the
//     writer by at most the publication cadence (`publish_every_updates`
//     updates / `publish_interval_ms` ms, and the writer always publishes
//     when its queue drains, so an idle service converges to staleness 0).
//   * Backpressure instead of unbounded buffering: `Submit` never blocks;
//     once `queue_capacity` updates are waiting it returns
//     kResourceExhausted and the caller retries (or sheds load).
//   * Shutdown is explicit and drains by default: `Shutdown(true)` stops
//     intake, applies everything already queued, publishes a final
//     snapshot covering all of it, and joins the writer.  `Drain()` may be
//     called from any number of threads at once.
//   * Durability is opt-in (PersistOptions): accepted updates are
//     write-ahead logged BEFORE Submit acknowledges them, full state
//     snapshots bound the replay, and `Recover()` rebuilds the exact phi
//     after a crash.  A failed durability write flips the service to
//     read-only "degraded" mode rather than lying about persistence.
//
// Slot ids are the DynamicBipartiteGraph slot ids and are only meaningful
// relative to a snapshot: when the writer compacts the slot table
// (`compact_every_updates`), later snapshots use the new numbering (their
// `num_slots` shrinks).  Out-of-range reads against any snapshot are
// answered with 0, never out-of-bounds — see IncrementalBitruss::Phi.

#ifndef BITRUSS_SERVE_BITRUSS_SERVICE_H_
#define BITRUSS_SERVE_BITRUSS_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic/incremental_bitruss.h"
#include "graph/bipartite_graph.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "persist/snapshot_io.h"
#include "persist/wal.h"
#include "util/status.h"
#include "util/sync.h"

namespace bitruss {

/// An immutable, versioned freeze of the maintained bitruss state.  The
/// slot vectors are indexed by slot id in [0, num_slots); free slots read
/// phi and support 0 with live == 0.  `phi_counts` carries the phi
/// histogram, so the size of every k-bitruss (a suffix sum of it) and the
/// top-k threshold are read without a scan; `phi_block_max` carries the
/// largest phi of every kPhiBlock-slot block, so TopKPhi visits only the
/// blocks that can hold an answer.  Query helpers are const and safe to
/// call from any number of threads concurrently.
struct PhiSnapshot {
  /// Slots per phi_block_max entry.
  static constexpr EdgeId kPhiBlock = 64;

  /// Publication sequence number, strictly increasing from 1 (the initial
  /// snapshot of the seed graph).
  std::uint64_t version = 0;
  /// Updates the writer had consumed when this snapshot was taken; the
  /// snapshot is exactly the state after the first `applied_updates`
  /// submitted updates.  Staleness of a read = writer's current applied
  /// count minus this.
  std::uint64_t applied_updates = 0;
  EdgeId num_edges = 0;
  EdgeId num_slots = 0;
  std::uint64_t num_butterflies = 0;
  std::vector<SupportT> phi;
  std::vector<SupportT> support;
  std::vector<std::uint8_t> live;
  /// phi_counts[p] = live edges with phi p, up to the largest live phi
  /// (empty when no edge is live); sums to num_edges.
  std::vector<std::uint64_t> phi_counts;
  /// phi_block_max[b] = the largest phi in slots [kPhiBlock * b,
  /// kPhiBlock * (b + 1)); ceil(num_slots / kPhiBlock) entries.  Free
  /// slots read phi 0, so a block of free slots reads 0.
  std::vector<SupportT> phi_block_max;

  /// Bitruss number of a slot; 0 for free slots and any id >= num_slots
  /// (a stale id from before a compaction reads 0, never out of bounds).
  SupportT Phi(EdgeId slot) const { return slot < phi.size() ? phi[slot] : 0; }
  /// Butterfly support of a slot, same bounds contract as Phi.
  SupportT SupportOf(EdgeId slot) const {
    return slot < support.size() ? support[slot] : 0;
  }
  bool IsLive(EdgeId slot) const {
    return slot < live.size() && live[slot] != 0;
  }

  /// The k live edges with the largest phi, sorted by (phi desc, slot
  /// asc) — deterministic for a given snapshot.  Returns fewer than k
  /// pairs when fewer live edges exist.  The phi threshold comes off
  /// phi_counts; a walk of phi_block_max skips every block whose max is
  /// below it, scans the rest in slot order until k answers are found
  /// (ties at the threshold by ascending slot), and only those at most k
  /// pairs are sorted.  With a threshold above 0 every scanned block adds
  /// an answer, so the cost is O(num_slots / kPhiBlock + kPhiBlock * k)
  /// past the threshold's walk down phi_counts.
  std::vector<std::pair<EdgeId, SupportT>> TopKPhi(std::size_t k) const;

  /// (phi value, live-edge count) pairs sorted by phi ascending; counts
  /// sum to num_edges.  Read off phi_counts: O(largest live phi).
  std::vector<std::pair<SupportT, std::uint64_t>> PhiHistogram() const;
};

/// Crash-tolerance knobs.  With a non-empty `dir` the service WRITE-AHEAD
/// LOGS every accepted update before acknowledging it and periodically
/// persists full state snapshots, so a kill -9 (or power cut, under the
/// every-record fsync policy) loses at most the unacknowledged tail —
/// BitrussService::Recover rebuilds the exact maintained phi from the
/// newest snapshot plus the WAL suffix.  When any durability write fails
/// the service DEGRADES to read-only instead of crashing or silently
/// dropping its guarantee: reads keep serving the in-memory state, Submit
/// returns kUnavailable with the reason, /healthz reports "degraded".
struct PersistOptions {
  /// Durability directory; empty disables persistence entirely.  The
  /// constructor requires it to hold no prior WAL/snapshot state (use
  /// Recover() for that); recovery requires it to be readable.
  std::string dir;
  /// When WAL records reach disk: every-record survives power loss,
  /// every-publish (default) fsyncs at snapshot publications, os-buffered
  /// survives process death only.
  persist::FsyncPolicy fsync_policy = persist::FsyncPolicy::kEveryPublish;
  /// Checkpoint (durable state snapshot, WAL rotation, retention back to
  /// the previous checkpoint) every N applied updates; 0 means only at
  /// startup and drain-shutdown.
  std::uint64_t snapshot_every_updates = 4096;
};

/// What BitrussService::Recover had to do; for logs, tests, and the
/// `bitruss_recovery_*` metric family.
struct RecoveryStats {
  /// WAL sequence the loaded snapshot covered (0 when starting from the
  /// seed graph because no intact snapshot existed).
  std::uint64_t snapshot_applied = 0;
  std::uint64_t wal_replayed = 0;           ///< records applied from the WAL
  std::uint64_t torn_records_discarded = 0; ///< torn-tail records dropped
  int corrupt_snapshots_skipped = 0;  ///< damaged snapshots passed over
  bool from_seed = false;  ///< no snapshot found; state rebuilt from seed
  double seconds = 0;      ///< wall time of the whole recovery
};

struct BitrussServiceOptions {
  /// Bound on updates waiting in the ingest queue; Submit returns
  /// kResourceExhausted once it is reached (backpressure, never blocking).
  std::size_t queue_capacity = 4096;
  /// Publish a fresh snapshot every N consumed updates (0 disables the
  /// count trigger).  Independent of either knob, the writer publishes
  /// whenever its queue drains while unpublished updates exist.
  std::uint64_t publish_every_updates = 64;
  /// Publish at least every T milliseconds while updates keep arriving
  /// (0 disables the time trigger).
  double publish_interval_ms = 10.0;
  /// Compact the slot table every N consumed updates (0 = never).  Inserts
  /// reuse freed slots, so the table stays at the live-edge high-water
  /// mark; compaction releases the slots freed since then, which every
  /// published snapshot and fallback recompute otherwise keeps sizing for.
  /// See DynamicBipartiteGraph::CompactSlots.  Snapshots published after
  /// a compaction use the new slot numbering.
  std::uint64_t compact_every_updates = 0;
  /// Knobs for the owned IncrementalBitruss (cascade budget, fallback
  /// decompose algorithm).
  IncrementalBitrussOptions incremental;
  /// WAL + snapshot durability; see PersistOptions.  Disabled by default.
  PersistOptions persist;
};

/// Monotonic service counters, readable from any thread at any time.
/// Backed by the service's obs::Counter instruments, which are also
/// registered with obs::MetricsRegistry::Default() under
/// `bitruss_serve_*` — one set of counters serves both views.
struct BitrussServiceStats {
  std::uint64_t submitted = 0;   ///< accepted into the queue
  std::uint64_t applied = 0;     ///< consumed by the writer (incl. no-ops)
  std::uint64_t apply_failures = 0;  ///< duplicate inserts, missing deletes
  std::uint64_t rejected_overflow = 0;  ///< Submit calls bounced by backpressure
  std::uint64_t published_snapshots = 0;
  std::uint64_t compactions = 0;
  std::uint64_t snapshot_reads = 0;  ///< Snapshot() acquisitions served
};

class BitrussService {
 public:
  /// Builds the initial phi state from `seed` (one full Decompose) on the
  /// calling thread, publishes it as snapshot version 1, then starts the
  /// writer thread.  With options.persist.dir set this is Recover() from
  /// an empty directory, leaving `snapshot-0` and a WAL from sequence 1.
  /// Throws std::invalid_argument when the directory holds WAL/snapshot
  /// state or cannot be created, std::runtime_error when the WAL cannot be
  /// opened; a failed initial snapshot only degrades.
  explicit BitrussService(const BipartiteGraph& seed,
                          BitrussServiceOptions options = {});

  /// Rebuilds a service from the durable state under options.persist.dir
  /// (which must be set; it is created if missing): loads the newest
  /// intact snapshot (falling back to older ones past corrupt files, and
  /// to a fresh Decompose of `seed` when none exists), replays the WAL
  /// records after it — a torn final record is discarded, any other
  /// damage or sequence gap returns kDataLoss (`stats` is filled either
  /// way) — reopens the WAL, checkpoints everything recovered, and starts
  /// serving.  The recovered phi is bit-identical to replaying the same
  /// accepted updates against a fresh service.  If re-establishing
  /// durability fails (disk full at the recovery snapshot, WAL reopen
  /// error) the service still starts, DEGRADED to read-only, so the
  /// recovered state remains queryable.
  [[nodiscard]] static StatusOr<std::unique_ptr<BitrussService>> Recover(
      const BipartiteGraph& seed, BitrussServiceOptions options,
      RecoveryStats* stats = nullptr);

  BitrussService(const BitrussService&) = delete;
  BitrussService& operator=(const BitrussService&) = delete;

  /// Equivalent to Shutdown(/*drain=*/true).
  ~BitrussService();

  // -- Ingest side (any thread) --------------------------------------------

  /// Enqueues one update without blocking.  kResourceExhausted when the
  /// queue is full (retry later), kUnavailable after Shutdown,
  /// kInvalidArgument for out-of-range endpoints (checked here so the
  /// producer learns immediately, not via a counter).
  [[nodiscard]] Status Submit(const EdgeUpdate& update);
  [[nodiscard]] Status SubmitInsert(VertexId upper_local,
                                    VertexId lower_local) {
    return Submit({EdgeUpdate::Kind::kInsert, upper_local, lower_local});
  }
  [[nodiscard]] Status SubmitDelete(VertexId upper_local,
                                    VertexId lower_local) {
    return Submit({EdgeUpdate::Kind::kDelete, upper_local, lower_local});
  }

  /// Blocks until every update submitted before the call has been applied
  /// AND a snapshot covering all of them is published.  kUnavailable if
  /// the service was shut down without draining first.
  [[nodiscard]] Status Drain();

  /// Stops intake (Submit fails with kUnavailable from now on); with
  /// `drain` applies + publishes everything queued, otherwise discards the
  /// queue after the in-flight batch.  Joins the writer.  Idempotent; the
  /// first call's drain choice wins.
  void Shutdown(bool drain = true);

  // -- Read side (any thread, never blocked by the writer) -----------------

  /// The most recently published snapshot (never null).
  std::shared_ptr<const PhiSnapshot> Snapshot() const;

  /// Point reads off the current snapshot.  These service-level wrappers
  /// are additionally TIMED (acquisition + query) into the
  /// `bitruss_serve_read_{phi,topk,histogram}_seconds` histograms —
  /// callers that hold a Snapshot() and query it directly skip the
  /// clock overhead and the instruments.
  SupportT Phi(EdgeId slot) const;
  SupportT SupportOf(EdgeId slot) const;
  std::vector<std::pair<EdgeId, SupportT>> TopKPhi(std::size_t k) const;
  std::vector<std::pair<SupportT, std::uint64_t>> PhiHistogram() const;

  std::uint64_t SubmittedUpdates() const { return submitted_.Value(); }
  std::uint64_t AppliedUpdates() const { return applied_.Value(); }
  /// Applied updates not yet visible to readers (the writer's lead over
  /// the published snapshot, in updates).
  std::uint64_t StalenessUpdates() const;

  /// Updates currently waiting in the ingest queue.
  std::uint64_t QueueDepth() const;
  /// Seconds since the last snapshot publication (how old the visible
  /// state is in wall time; complements StalenessUpdates' update count).
  double SnapshotAgeSeconds() const;

  /// One-line JSON liveness document for an admin `/healthz` endpoint:
  /// status ("ok", or "degraded" with a degraded_reason field), snapshot
  /// version + covered updates + age, queue depth / capacity,
  /// applied/submitted counters, staleness, edge + butterfly counts.
  /// Safe from any thread; values are individually atomic (same
  /// consistency contract as Stats()).
  std::string HealthJson() const;

  /// True once a durability write has failed and the service is serving
  /// reads only (Submit returns kUnavailable).  Latched for the life of
  /// the process — re-arming durability safely needs a restart through
  /// Recover().
  bool Degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }
  /// Human-readable cause of the degradation ("" while healthy).
  std::string DegradedReason() const;

  /// Submitted/applied counts offset by the updates this process
  /// recovered at startup (0 for a fresh service): the WAL sequence space
  /// and durable snapshot stamps live in this absolute numbering, while
  /// Stats() counters cover only this process's own work.
  std::uint64_t RecoveredBase() const { return recovered_base_; }

  BitrussServiceStats Stats() const;

  // -- Test hooks ----------------------------------------------------------

  /// Suspends/resumes the writer between batches.  While paused the queue
  /// fills and Submit exercises real backpressure deterministically; used
  /// by tests, not part of the serving API proper.
  void Pause();
  void Resume();

 private:
  /// A queued update plus its submit timestamp: the lifecycle clock that
  /// apply latency (submit -> applied) and visibility latency (submit ->
  /// covering snapshot published) are measured against.
  struct QueuedUpdate {
    EdgeUpdate update;
    std::chrono::steady_clock::time_point submit_time;
  };

  /// What the restore path rebuilds; the private constructor adopts it.
  struct RestoredState {
    explicit RestoredState(IncrementalBitruss restored,
                           std::uint64_t applied_updates = 0)
        : inc(std::move(restored)), applied(applied_updates) {}
    IncrementalBitruss inc;
    std::uint64_t applied = 0;  ///< absolute update count the state reflects
    /// Applied count of the snapshot restored from (0: the seed).
    std::uint64_t loaded = 0;
    /// Null when persistence is off or the WAL could not be reopened.
    std::unique_ptr<persist::WalWriter> wal;
    std::string degraded_reason;  ///< why reopening failed; "" when healthy
  };
  /// The log record of `update` at WAL sequence `seq`: kind 0 for an
  /// insert, 1 for a delete.  This and the rest of the durability wiring
  /// (StartFresh, Restore, Recover, WriteDurableSnapshot) live in
  /// service_durability.cc.
  static persist::WalRecord ToWalRecord(const EdgeUpdate& update,
                                        std::uint64_t seq);
  /// The public constructor's Restore(), throwing its documented errors.
  static RestoredState StartFresh(const BipartiteGraph& seed,
                                  const BitrussServiceOptions& options);
  /// Newest snapshot (or the seed), WAL replay, WAL reopened at the next
  /// sequence (a failed open leaves `wal` null with the reason); fills
  /// `stats` as it goes.
  static StatusOr<RestoredState> Restore(const BipartiteGraph& seed,
                                         const BitrussServiceOptions& options,
                                         RecoveryStats* stats);
  /// Both entry points end here: instruments, checkpoint, version 1, writer.
  BitrussService(RestoredState state, BitrussServiceOptions options);

  void WriterLoop();
  /// Updates the next batch may take: those left before the next
  /// count-triggered publish, compaction or durable snapshot (writer
  /// thread only).
  std::uint64_t BatchLimit() const;
  /// Applies batch_ to the owned IncrementalBitruss (writer thread only):
  /// applied/failure counters, per-update apply latency, the batch
  /// instruments, then the compaction and durable snapshot due
  /// at the batch's end.
  void ApplyBatch();
  /// Wakes Drain() callers.  Takes mu_ so the notify cannot fall between
  /// a caller's predicate check and its wait.
  void NotifyDrained();
  /// Freezes the current state into a snapshot and publishes it (writer
  /// thread, or the constructor before the writer starts).  The cost is
  /// O(slots the batch touched): the snapshot no reader holds any more
  /// comes back through the recycler, and the writer rewrites only the
  /// slots touched since its version (IncrementalBitruss::
  /// TakeTouchedSlots), updating phi_counts and phi_block_max from the
  /// last published snapshot.  It copies every slot, and counts a full
  /// copy, when no buffer is free, when the buffer is older than the kept
  /// reports, or when one of them is "all" (recompute, compaction,
  /// restore).
  void PublishSnapshot();
  /// The full-copy and the patch halves of PublishSnapshot: bring
  /// `snapshot`'s slot vectors, phi_counts and phi_block_max up to the
  /// current state.
  void CopyAllSlots(PhiSnapshot& snapshot) const;
  void PatchTouchedSlots(PhiSnapshot& snapshot, std::uint64_t version,
                         const PhiSnapshot& previous) const;

  /// One-entry pool of published snapshots whose last reader let go.
  /// Each published snapshot's deleter holds a weak reference to it, so a
  /// snapshot that outlives the service frees itself, and the spare dies
  /// with the service even while threads still cache weak_ptrs to its
  /// snapshots.
  struct SnapshotRecycler {
    Mutex mu;
    std::unique_ptr<PhiSnapshot> spare GUARDED_BY(mu);
    /// Keeps the newer of `snapshot` and the spare; frees the other.
    void Give(std::unique_ptr<PhiSnapshot> snapshot) EXCLUDES(mu);
    std::unique_ptr<PhiSnapshot> Take() EXCLUDES(mu);
  };
  /// Touched-slot reports of the last kKeptReports publications: the one
  /// that produced version v sits at v % kKeptReports.
  static constexpr std::uint64_t kKeptReports = 4;
  /// One row of the name -> owned counter table.
  struct InstrumentEntry {
    const char* name;
    const obs::Counter* counter;
  };
  /// The owned counters by registry family name; RegisterMetrics and
  /// UnregisterMetrics both walk this one table.
  std::vector<InstrumentEntry> Instruments() const;
  void RegisterMetrics();
  void UnregisterMetrics();

  /// Counts a durability failure and latches read-only degraded mode with
  /// `reason` (the first reason sticks; see HealthJson).
  void EnterDegraded(const std::string& reason) EXCLUDES(mu_);

  /// The checkpoint, the only code that writes snapshots, rotates the WAL
  /// or prunes: at startup (constructor), then on the writer thread at the
  /// snapshot cadence and drain shutdown.  Any failure degrades.
  void WriteDurableSnapshot();

  BitrussServiceOptions options_;
  IncrementalBitruss inc_;  // writer thread only (constructor excepted)
  // Vertex-set bounds are fixed at seeding; cached so Submit can validate
  // endpoints without touching the writer-owned graph.
  const VertexId num_upper_;
  const VertexId num_lower_;
  /// Updates already reflected in the recovered state at startup (0 for a
  /// fresh service).  Process-local counters stay zero-based; this offset
  /// is added wherever a number must be meaningful ACROSS restarts: WAL
  /// sequences, durable snapshot stamps, published applied_updates.
  const std::uint64_t recovered_base_ = 0;
  /// Process-wide unique id that keys the per-thread snapshot cache; an
  /// address would not do, since a service built where a destroyed one
  /// lived starts at version 1 too.
  const std::uint64_t id_;

  /// Write-ahead log, or null when persistence is off (and after a failed
  /// reopen at recovery).  The pointer is set once in the constructor and
  /// never reassigned; WalWriter itself is internally synchronized, so
  /// Submit (under mu_) and the writer thread (Sync/Rotate/TruncateThrough)
  /// may call into it concurrently.
  std::unique_ptr<persist::WalWriter> wal_;
  /// Ordering: release store under mu_ (after degraded_reason_ is
  /// written), acquire loads elsewhere — a reader that observes true and
  /// then takes mu_ sees the reason.  Latched, never cleared.
  std::atomic<bool> degraded_{false};
  std::string degraded_reason_ GUARDED_BY(mu_);

  // Published state.  snapshot_ is accessed exclusively through
  // std::atomic_load / std::atomic_store (acquire/release): C++17's
  // spelling of atomic<shared_ptr>.  Snapshot() loads it only when this
  // thread's cached entry is not at published_snapshots_, the newest
  // version.
  std::shared_ptr<const PhiSnapshot> snapshot_;
  /// Updates covered by the published snapshot; release-stored after the
  /// snapshot store and the publish count, acquire-loaded by
  /// Drain/StalenessUpdates so seeing the count implies seeing the
  /// covering snapshot and its version in published_snapshots_.
  std::atomic<std::uint64_t> published_applied_{0};

  // Counters (see BitrussServiceStats), doubling as the service's
  // registry-visible instruments: the only ones a service owns, because
  // Stats() reads them per instance.  submitted_/applied_ and the
  // publication pair keep their release/acquire protocol via IncOrdered():
  // Drain()'s predicate and readers' staleness math synchronize-with the
  // writer through them, and Snapshot() checks its cached entry against
  // published_snapshots_.
  obs::Counter submitted_;
  obs::Counter applied_;
  obs::Counter apply_failures_;
  obs::Counter rejected_overflow_;
  obs::Counter published_snapshots_;
  obs::Counter compactions_;
  mutable obs::Counter snapshot_reads_;
  obs::Gauge queue_depth_;  ///< instantaneous, set under mu_

  // Process-wide families of obs::MetricsRegistry::Default(), which every
  // service reports into; each is fetched once, with its family name and
  // bucket layout, in the constructor.
  /// High-water mark of the ingest queue across every service.
  obs::Gauge* const queue_depth_peak_;
  /// Publications that copied every slot instead of patching.
  obs::Counter* const publish_full_copies_;
  /// Snapshot build time at publication (the WAL sync is timed apart).
  obs::Histogram* const publish_seconds_;
  obs::Histogram* const staleness_updates_;
  // Exact per-update submit->applied and submit->first-visible-snapshot
  // walls.
  obs::Histogram* const apply_seconds_;
  obs::Histogram* const visibility_seconds_;
  // Writer batches: updates per batch and ApplyBatch seconds (writer work
  // only, no queue wait).
  obs::Histogram* const batch_updates_;
  obs::Histogram* const batch_seconds_;
  // The timed read wrappers (Phi/SupportOf, TopKPhi, PhiHistogram).
  obs::Histogram* const read_phi_seconds_;
  obs::Histogram* const read_topk_seconds_;
  obs::Histogram* const read_histogram_seconds_;
  // Durability: WAL appends, failures, checkpoints and pruned segments.
  obs::Counter* const persist_wal_records_;
  obs::Counter* const persist_wal_bytes_;
  obs::Counter* const persist_failures_;
  obs::Counter* const persist_snapshots_;
  obs::Counter* const persist_snapshot_failures_;
  obs::Counter* const persist_wal_truncated_segments_;
  /// WAL fsync at each publication under FsyncPolicy::kEveryPublish.
  obs::Histogram* const persist_wal_sync_seconds_;
  std::vector<std::uint64_t> gauge_callback_handles_;
  /// Steady-clock nanosecond stamp of the last publication, for
  /// SnapshotAgeSeconds: release-stored by the writer at publication,
  /// acquire-loaded by any reader thread.
  std::atomic<std::int64_t> last_publish_ns_{0};

  // Ingest queue + writer control.
  mutable Mutex mu_;
  CondVar queue_cv_;    // writer waits for work/stop
  CondVar drained_cv_;  // Drain() waits for quiescence
  std::deque<QueuedUpdate> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  bool drain_on_stop_ GUARDED_BY(mu_) = true;
  bool paused_ GUARDED_BY(mu_) = false;

  // Writer-thread-local publication bookkeeping (no locking needed).
  std::uint64_t applied_since_publish_ = 0;
  std::uint64_t applied_since_compact_ = 0;
  /// Absolute applied count of the last checkpoint, written or loaded at
  /// startup; the snapshot cadence counts from it.
  std::uint64_t checkpoint_ = 0;
  /// Submit timestamps of applied-but-not-yet-published updates; drained
  /// into visibility_seconds_ at each publication (bounded by the publish
  /// cadence: the writer publishes at the latest when its queue drains).
  /// The current batch's stamps are its last batch_.size() entries.
  std::vector<std::chrono::steady_clock::time_point> pending_visibility_;
  /// The updates popped for the current batch.
  std::vector<EdgeUpdate> batch_;
  /// Where published snapshots return once no reader holds them.
  std::shared_ptr<SnapshotRecycler> recycler_ =
      std::make_shared<SnapshotRecycler>();
  std::vector<TouchedSlots> kept_reports_ =
      std::vector<TouchedSlots>(kKeptReports);

  Mutex join_mu_;  // serializes the writer join across Shutdown races
  /// Started last in the constructor (unguarded there: the object is not
  /// yet shared), joined by exactly one Shutdown caller under join_mu_.
  std::thread writer_ GUARDED_BY(join_mu_);
};

}  // namespace bitruss

#endif  // BITRUSS_SERVE_BITRUSS_SERVICE_H_
