#include "serve/bitruss_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace bitruss {

namespace {
using Clock = std::chrono::steady_clock;

// phi_block_max entries for a table of `slots` slots.
std::size_t NumPhiBlocks(EdgeId slots) {
  return (std::size_t{slots} + PhiSnapshot::kPhiBlock - 1) /
         PhiSnapshot::kPhiBlock;
}

// A phi no slot reaches: PatchTouchedSlots' mark on a block to rescan.
constexpr SupportT kStale = std::numeric_limits<SupportT>::max();

// Runs one read and records its latency (acquisition + query) in
// `seconds`.
template <typename Read>
auto TimedRead(obs::Histogram* seconds, const Read& read) {
  const Clock::time_point start = Clock::now();
  auto result = read();
  seconds->Observe(
      std::chrono::duration<double>(Clock::now() - start).count());
  return result;
}

// The process-wide families of the default registry that every service
// reports into.
obs::Counter* CounterFamily(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name);
}
obs::Histogram* HistogramFamily(const char* name,
                                const std::vector<double>& bounds) {
  return obs::MetricsRegistry::Default().GetHistogram(name, bounds);
}

// Ordering: relaxed fetch_add; the ids only need to be distinct, so that a
// service built where a destroyed one lived never matches its cache entries.
std::atomic<std::uint64_t> next_service_id{1};

// The snapshot this thread acquired last, keyed by its service's id and its
// version.  It never owns the snapshot: one that has been replaced still
// goes back to its service's recycler when its last reader lets go.
struct SnapshotCache {
  std::uint64_t service_id = 0;
  std::uint64_t version = 0;
  std::weak_ptr<const PhiSnapshot> snapshot;
};
thread_local SnapshotCache snapshot_cache;
}  // namespace

std::vector<std::pair<EdgeId, SupportT>> PhiSnapshot::TopKPhi(
    std::size_t k) const {
  std::vector<std::pair<EdgeId, SupportT>> top;
  if (k == 0 || num_edges == 0) return top;
  // The answer is every live edge above `floor` plus the first `at_floor`
  // live edges at it by ascending slot; with fewer than k live edges,
  // every one.
  SupportT floor = 0;
  std::uint64_t at_floor = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t above = 0;
  for (std::size_t level = phi_counts.size(); level-- > 0;) {
    if (above + phi_counts[level] >= k) {
      floor = static_cast<SupportT>(level);
      at_floor = k - above;
      break;
    }
    above += phi_counts[level];
  }
  top.reserve(std::min<std::uint64_t>(k, num_edges));
  // A block is scanned only when its max can join the answer, so with a
  // floor above 0 every scanned block yields at least one pair.
  for (std::size_t block = 0; block < phi_block_max.size() && top.size() < k;
       ++block) {
    const SupportT block_max = phi_block_max[block];
    if (block_max < floor || (block_max == floor && at_floor == 0)) continue;
    const auto first = static_cast<EdgeId>(block * kPhiBlock);
    const EdgeId end = first + std::min(kPhiBlock, num_slots - first);
    for (EdgeId slot = first; slot < end && top.size() < k; ++slot) {
      if (live[slot] == 0 || phi[slot] < floor) continue;
      if (phi[slot] == floor) {
        if (at_floor == 0) continue;
        --at_floor;
      }
      top.emplace_back(slot, phi[slot]);
    }
  }
  std::sort(top.begin(), top.end(),
            [](const std::pair<EdgeId, SupportT>& a,
               const std::pair<EdgeId, SupportT>& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  return top;
}

std::vector<std::pair<SupportT, std::uint64_t>> PhiSnapshot::PhiHistogram()
    const {
  std::vector<std::pair<SupportT, std::uint64_t>> levels;
  levels.reserve(static_cast<std::size_t>(
      phi_counts.size() -
      std::count(phi_counts.begin(), phi_counts.end(), std::uint64_t{0})));
  for (std::size_t level = 0; level < phi_counts.size(); ++level) {
    if (phi_counts[level] != 0) {
      levels.emplace_back(static_cast<SupportT>(level), phi_counts[level]);
    }
  }
  return levels;
}

void BitrussService::SnapshotRecycler::Give(
    std::unique_ptr<PhiSnapshot> snapshot) {
  MutexLock lock(mu);
  // The newer buffer is fewer reports behind, so cheaper to patch.
  if (spare == nullptr || spare->version < snapshot->version) {
    spare.swap(snapshot);
  }
}

std::unique_ptr<PhiSnapshot> BitrussService::SnapshotRecycler::Take() {
  MutexLock lock(mu);
  return std::move(spare);
}

BitrussService::BitrussService(const BipartiteGraph& seed,
                               BitrussServiceOptions options)
    : BitrussService(StartFresh(seed, options), options) {}

BitrussService::BitrussService(RestoredState state,
                               BitrussServiceOptions options)
    : options_(std::move(options)),
      inc_(std::move(state.inc)),
      num_upper_(inc_.Graph().NumUpper()),
      num_lower_(inc_.Graph().NumLower()),
      recovered_base_(state.applied),
      id_(next_service_id.fetch_add(1, std::memory_order_relaxed)),
      wal_(std::move(state.wal)),
      queue_depth_peak_(obs::MetricsRegistry::Default().GetGauge(
          "bitruss_serve_queue_depth_peak")),
      publish_full_copies_(
          CounterFamily("bitruss_serve_publish_full_copies_total")),
      // A patched publish takes microseconds, a full copy of a large slot
      // table up to milliseconds.
      publish_seconds_(HistogramFamily("bitruss_serve_publish_seconds",
                                       obs::ExponentialBuckets(1e-6, 2.0, 20))),
      staleness_updates_(
          HistogramFamily("bitruss_serve_staleness_updates",
                          obs::ExponentialBuckets(1.0, 2.0, 12))),
      // Lifecycle latencies: applies can take microseconds (trivial
      // updates) to seconds (fallback recomputes, long queue waits);
      // visibility adds the publish cadence on top.  Both top out past
      // 60 s so a backlogged p99 is measured, not clamped.  Reads are
      // nanoseconds to milliseconds (top-k scans).
      apply_seconds_(HistogramFamily("bitruss_serve_apply_seconds",
                                     obs::ExponentialBuckets(1e-6, 2.0, 27))),
      visibility_seconds_(
          HistogramFamily("bitruss_serve_visibility_seconds",
                          obs::ExponentialBuckets(1e-5, 2.0, 24))),
      batch_updates_(HistogramFamily("bitruss_serve_batch_updates",
                                     obs::ExponentialBuckets(1.0, 2.0, 14))),
      batch_seconds_(HistogramFamily("bitruss_serve_batch_seconds",
                                     obs::ExponentialBuckets(1e-6, 2.0, 27))),
      read_phi_seconds_(
          HistogramFamily("bitruss_serve_read_phi_seconds",
                          obs::ExponentialBuckets(1e-7, 2.0, 18))),
      read_topk_seconds_(
          HistogramFamily("bitruss_serve_read_topk_seconds",
                          obs::ExponentialBuckets(1e-7, 2.0, 18))),
      read_histogram_seconds_(
          HistogramFamily("bitruss_serve_read_histogram_seconds",
                          obs::ExponentialBuckets(1e-7, 2.0, 18))),
      persist_wal_records_(CounterFamily("bitruss_persist_wal_records_total")),
      persist_wal_bytes_(CounterFamily("bitruss_persist_wal_bytes_total")),
      persist_failures_(CounterFamily("bitruss_persist_failures_total")),
      persist_snapshots_(CounterFamily("bitruss_persist_snapshots_total")),
      persist_snapshot_failures_(
          CounterFamily("bitruss_persist_snapshot_failures_total")),
      persist_wal_truncated_segments_(
          CounterFamily("bitruss_persist_wal_truncated_segments_total")),
      // An fsync takes tens of microseconds on a cache-backed disk and can
      // stall for seconds on a busy one.
      persist_wal_sync_seconds_(
          HistogramFamily("bitruss_persist_wal_sync_seconds",
                          obs::ExponentialBuckets(1e-6, 2.0, 24))) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  RegisterMetrics();
  if (!state.degraded_reason.empty()) EnterDegraded(state.degraded_reason);
  // The startup checkpoint: snapshot-0, or one covering all recovered.
  checkpoint_ = state.loaded;
  if (wal_ != nullptr) WriteDurableSnapshot();
  // Version 1 covers the restored state; readers never observe a null
  // snapshot.  Publishing before the writer starts needs no atomics beyond
  // the store itself: thread creation orders everything before it.
  PublishSnapshot();
  writer_ = std::thread(&BitrussService::WriterLoop, this);
}

BitrussService::~BitrussService() {
  Shutdown(/*drain=*/true);
  UnregisterMetrics();
}

std::vector<BitrussService::InstrumentEntry> BitrussService::Instruments()
    const {
  return {
      {"bitruss_serve_submitted_total", &submitted_},
      {"bitruss_serve_applied_total", &applied_},
      {"bitruss_serve_apply_failures_total", &apply_failures_},
      {"bitruss_serve_rejected_overflow_total", &rejected_overflow_},
      {"bitruss_serve_published_snapshots_total", &published_snapshots_},
      {"bitruss_serve_compactions_total", &compactions_},
      {"bitruss_serve_reads_total", &snapshot_reads_},
  };
}

void BitrussService::RegisterMetrics() {
  auto& registry = obs::MetricsRegistry::Default();
  for (const InstrumentEntry& entry : Instruments()) {
    registry.RegisterCounter(entry.name, entry.counter);
  }
  // The depth gauge is a plain atomic read, safe under the registry lock.
  gauge_callback_handles_.push_back(registry.AddGaugeCallback(
      "bitruss_serve_queue_depth", [this] { return queue_depth_.Value(); }));
  gauge_callback_handles_.push_back(
      registry.AddGaugeCallback("bitruss_persist_degraded", [this] {
        return std::int64_t{Degraded() ? 1 : 0};
      }));
  // WalWriter::Fsyncs takes the WAL's internal mutex — a leaf below the
  // registry lock, never held while calling back out.
  gauge_callback_handles_.push_back(
      registry.AddGaugeCallback("bitruss_persist_wal_fsyncs", [this] {
        return wal_ ? static_cast<std::int64_t>(wal_->Fsyncs())
                    : std::int64_t{0};
      }));
}

void BitrussService::UnregisterMetrics() {
  auto& registry = obs::MetricsRegistry::Default();
  for (const InstrumentEntry& entry : Instruments()) {
    registry.UnregisterCounter(entry.name, entry.counter);
  }
  for (const std::uint64_t handle : gauge_callback_handles_) {
    registry.RemoveGaugeCallback(handle);
  }
  gauge_callback_handles_.clear();
}

Status BitrussService::Submit(const EdgeUpdate& update) {
  if (update.upper_local >= num_upper_ || update.lower_local >= num_lower_) {
    return InvalidArgumentError("endpoint out of range");
  }
  Status logged = OkStatus();
  {
    MutexLock lock(mu_);
    if (stopping_) {
      return UnavailableError("BitrussService is shut down");
    }
    if (degraded_.load(std::memory_order_acquire)) {
      return UnavailableError("service is read-only (degraded): " +
                              degraded_reason_);
    }
    // Capacity is checked BEFORE the WAL append: a rejected update consumes
    // no sequence number, so the log holds exactly the accepted stream.
    if (queue_.size() >= options_.queue_capacity) {
      rejected_overflow_.Inc();
    } else {
      // Write-ahead: the record must be durable (to the configured policy)
      // before the OK that acknowledges the update.  After a failed append
      // the WAL refuses every later one, so no update is acknowledged
      // between here and EnterDegraded below.
      if (wal_ != nullptr) {
        logged = wal_->Append(
            ToWalRecord(update, recovered_base_ + submitted_.Value() + 1));
      }
      if (logged.ok()) {
        if (wal_ != nullptr) {
          persist_wal_records_->Inc();
          persist_wal_bytes_->Inc(persist::kWalRecordBytes);
        }
        // A logged record MUST be enqueued — skipping it would leave a gap
        // between the WAL and the applied stream.  Nothing below can fail.
        queue_.push_back({update, Clock::now()});
        const auto depth = static_cast<std::int64_t>(queue_.size());
        queue_depth_.Set(depth);
        queue_depth_peak_->MaxWith(depth);
        submitted_.IncOrdered();
        queue_cv_.NotifyOne();
        return OkStatus();
      }
    }
  }
  if (!logged.ok()) {
    const std::string reason = "WAL append failed: " + logged.message();
    EnterDegraded(reason);
    return UnavailableError("service is read-only (degraded): " + reason);
  }
  return ResourceExhaustedError("ingest queue full");
}

Status BitrussService::Drain() {
  MutexLock lock(mu_);
  // Explicit predicate loop (not a wait-lambda) so the guarded reads are
  // checked against mu_ in this function's capability set.
  for (;;) {
    if (stopping_ && !drain_on_stop_) {
      return UnavailableError("shut down without draining");
    }
    const std::uint64_t applied = applied_.Value();
    if (queue_.empty() && applied == submitted_.Value() &&
        published_applied_.load(std::memory_order_acquire) == applied) {
      return OkStatus();
    }
    drained_cv_.Wait(lock);
  }
}

void BitrussService::Shutdown(bool drain) {
  {
    MutexLock lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      drain_on_stop_ = drain;
    }
  }
  queue_cv_.NotifyAll();
  {
    // Exactly one caller joins; Shutdown may race with itself and the
    // destructor.
    MutexLock join_lock(join_mu_);
    if (writer_.joinable()) writer_.join();
  }
  NotifyDrained();
}

void BitrussService::NotifyDrained() {
  MutexLock lock(mu_);
  drained_cv_.NotifyAll();
}

std::shared_ptr<const PhiSnapshot> BitrussService::Snapshot() const {
  snapshot_reads_.Inc();
  // The publish count is the newest version.  PublishSnapshot counts a
  // snapshot after storing it and before releasing published_applied_, so
  // an entry at the count is the newest snapshot, and a thread back from
  // Drain() reads the drained version's count.
  const std::uint64_t newest = published_snapshots_.Value();
  SnapshotCache& cache = snapshot_cache;
  if (cache.service_id == id_ && cache.version == newest) {
    if (std::shared_ptr<const PhiSnapshot> hit = cache.snapshot.lock()) {
      return hit;
    }
  }
  std::shared_ptr<const PhiSnapshot> current =
      std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
  cache.service_id = id_;
  cache.version = current->version;
  cache.snapshot = current;
  return current;
}

SupportT BitrussService::Phi(EdgeId slot) const {
  return TimedRead(read_phi_seconds_, [&] { return Snapshot()->Phi(slot); });
}

SupportT BitrussService::SupportOf(EdgeId slot) const {
  return TimedRead(read_phi_seconds_,
                   [&] { return Snapshot()->SupportOf(slot); });
}

std::vector<std::pair<EdgeId, SupportT>> BitrussService::TopKPhi(
    std::size_t k) const {
  return TimedRead(read_topk_seconds_, [&] { return Snapshot()->TopKPhi(k); });
}

std::vector<std::pair<SupportT, std::uint64_t>> BitrussService::PhiHistogram()
    const {
  return TimedRead(read_histogram_seconds_,
                   [&] { return Snapshot()->PhiHistogram(); });
}

std::uint64_t BitrussService::QueueDepth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

double BitrussService::SnapshotAgeSeconds() const {
  const std::int64_t stamp = last_publish_ns_.load(std::memory_order_acquire);
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
  return stamp == 0 || now < stamp
             ? 0
             : static_cast<double>(now - stamp) * 1e-9;
}

std::string BitrussService::DegradedReason() const {
  MutexLock lock(mu_);
  return degraded_reason_;
}

void BitrussService::EnterDegraded(const std::string& reason) {
  persist_failures_->Inc();
  {
    MutexLock lock(mu_);
    if (degraded_.load(std::memory_order_acquire)) return;
    degraded_reason_ = reason;
    // Release AFTER the reason is in place: an acquire-load of true followed
    // by taking mu_ always observes the reason (see the member comment).
    degraded_.store(true, std::memory_order_release);
  }
}

std::string BitrussService::HealthJson() const {
  const std::shared_ptr<const PhiSnapshot> snap = Snapshot();
  char age[64];
  std::snprintf(age, sizeof(age), "%.6f", SnapshotAgeSeconds());
  const bool degraded = Degraded();
  std::string out =
      degraded ? "{\"status\":\"degraded\"" : "{\"status\":\"ok\"";
  if (degraded) {
    out += ",\"degraded_reason\":";
    obs::AppendJsonEscaped(DegradedReason(), &out);
  }
  out += ",\"snapshot_version\":" + std::to_string(snap->version);
  out += ",\"snapshot_applied_updates\":" +
         std::to_string(snap->applied_updates);
  out += ",\"snapshot_age_seconds\":";
  out += age;
  out += ",\"queue_depth\":" + std::to_string(QueueDepth());
  out += ",\"queue_capacity\":" + std::to_string(options_.queue_capacity);
  out += ",\"submitted_updates\":" + std::to_string(submitted_.Value());
  out += ",\"applied_updates\":" + std::to_string(applied_.Value());
  out += ",\"staleness_updates\":" + std::to_string(StalenessUpdates());
  out += ",\"num_edges\":" + std::to_string(snap->num_edges);
  out += ",\"num_butterflies\":" + std::to_string(snap->num_butterflies);
  out += ",\"recovered_base\":" + std::to_string(recovered_base_);
  out += "}";
  return out;
}

std::uint64_t BitrussService::StalenessUpdates() const {
  // Loads can interleave with a publication; clamp instead of wrapping.
  const std::uint64_t applied = applied_.Value();
  const std::uint64_t seen = published_applied_.load(std::memory_order_acquire);
  return applied > seen ? applied - seen : 0;
}

BitrussServiceStats BitrussService::Stats() const {
  BitrussServiceStats stats;
  stats.submitted = submitted_.Value();
  stats.applied = applied_.Value();
  stats.apply_failures = apply_failures_.Value();
  stats.rejected_overflow = rejected_overflow_.Value();
  stats.published_snapshots = published_snapshots_.Value();
  stats.compactions = compactions_.Value();
  stats.snapshot_reads = snapshot_reads_.Value();
  return stats;
}

void BitrussService::Pause() {
  {
    MutexLock lock(mu_);
    paused_ = true;
  }
  queue_cv_.NotifyAll();
}

void BitrussService::Resume() {
  {
    MutexLock lock(mu_);
    paused_ = false;
  }
  queue_cv_.NotifyAll();
}

std::uint64_t BitrussService::BatchLimit() const {
  // A batch ends exactly where the one-at-a-time writer would stop to
  // publish, compact or snapshot, so none of those points moves.
  std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
  const auto stop_at = [&limit](std::uint64_t every, std::uint64_t since) {
    if (every != 0) limit = std::min(limit, every - std::min(every - 1, since));
  };
  stop_at(options_.publish_every_updates, applied_since_publish_);
  stop_at(options_.compact_every_updates, applied_since_compact_);
  if (wal_ != nullptr && !Degraded()) {
    stop_at(options_.persist.snapshot_every_updates,
            recovered_base_ + applied_.Value() - checkpoint_);
  }
  return limit;
}

void BitrussService::ApplyBatch() {
  const auto count = static_cast<std::uint64_t>(batch_.size());
  const Clock::time_point apply_start = Clock::now();
  apply_failures_.Inc(inc_.ApplyBatch(batch_));
  const Clock::time_point done = Clock::now();
  // Apply latency is submit -> applied: queue wait included, because that
  // is what a client experiences before its update can become visible.
  for (auto it = pending_visibility_.end() - static_cast<std::ptrdiff_t>(count);
       it != pending_visibility_.end(); ++it) {
    apply_seconds_->Observe(std::chrono::duration<double>(done - *it).count());
  }
  const double work_seconds =
      std::chrono::duration<double>(done - apply_start).count();
  batch_updates_->Observe(static_cast<double>(count));
  batch_seconds_->Observe(work_seconds);
  applied_.IncOrdered(count);
  applied_since_publish_ += count;

  if (options_.compact_every_updates != 0 &&
      (applied_since_compact_ += count) >= options_.compact_every_updates) {
    inc_.CompactSlots();
    applied_since_compact_ = 0;
    compactions_.IncOrdered();
  }
  // Durable-snapshot cadence runs AFTER a possible compaction so the
  // persisted image reflects the numbering later snapshots serve.
  if (wal_ != nullptr && !Degraded() &&
      options_.persist.snapshot_every_updates != 0 &&
      recovered_base_ + applied_.Value() - checkpoint_ >=
          options_.persist.snapshot_every_updates) {
    WriteDurableSnapshot();
  }
}

void BitrussService::PublishSnapshot() {
  // Publication is the durability boundary under kEveryPublish: every WAL
  // record acknowledged so far reaches disk before the covering snapshot
  // becomes visible to readers.
  if (wal_ != nullptr &&
      options_.persist.fsync_policy == persist::FsyncPolicy::kEveryPublish &&
      !Degraded()) {
    const Clock::time_point sync_start = Clock::now();
    const Status st = wal_->Sync();
    persist_wal_sync_seconds_->Observe(
        std::chrono::duration<double>(Clock::now() - sync_start).count());
    if (!st.ok()) EnterDegraded("WAL sync at publish failed: " + st.message());
  }
  const Clock::time_point publish_start = Clock::now();
  const DynamicBipartiteGraph& graph = inc_.Graph();
  const std::uint64_t version = published_snapshots_.Value() + 1;
  inc_.TakeTouchedSlots(&kept_reports_[version % kKeptReports]);
  std::shared_ptr<const PhiSnapshot> previous =
      std::atomic_load_explicit(&snapshot_, std::memory_order_relaxed);
  std::unique_ptr<PhiSnapshot> snapshot = recycler_->Take();
  // The spare can be patched when every report since its version is kept
  // and none of them is "all" (which the constructor's first one is).
  bool patch = snapshot != nullptr && previous != nullptr &&
               version - snapshot->version <= kKeptReports;
  for (std::uint64_t v = version; patch && v > snapshot->version; --v) {
    patch = !kept_reports_[v % kKeptReports].all;
  }
  if (patch) {
    PatchTouchedSlots(*snapshot, version, *previous);
  } else {
    if (snapshot == nullptr) snapshot = std::make_unique<PhiSnapshot>();
    CopyAllSlots(*snapshot);
    publish_full_copies_->Inc();
  }
  // Let go before the counters below: once Drain() returns, only readers
  // hold the replaced snapshot.
  previous.reset();
  const std::uint64_t covers = applied_.Value();
  const std::uint64_t prev_covered =
      published_applied_.load(std::memory_order_relaxed);
  const std::uint64_t staleness =
      covers > prev_covered ? covers - prev_covered : 0;
  snapshot->version = version;
  // Readers see the ABSOLUTE update count (meaningful across restarts);
  // the Drain/staleness protocol below stays in process-local numbers.
  snapshot->applied_updates = recovered_base_ + covers;
  snapshot->num_edges = graph.NumEdges();
  snapshot->num_slots = graph.NumSlots();
  snapshot->num_butterflies = graph.NumButterflies();
  // The last reader to drop this snapshot hands it back for a later
  // publication to patch, or frees it once the service is gone.
  std::shared_ptr<const PhiSnapshot> published(
      snapshot.release(),
      [recycler = std::weak_ptr<SnapshotRecycler>(recycler_)](
          PhiSnapshot* done) {
        std::unique_ptr<PhiSnapshot> owned(done);
        if (const auto pool = recycler.lock()) pool->Give(std::move(owned));
      });
  std::atomic_store_explicit(&snapshot_, std::move(published),
                             std::memory_order_release);
  // Both counters follow the snapshot store, so once they say "covered"
  // Snapshot() returns the covering version.  The count comes first: a
  // thread that sees published_applied_ (Drain) also sees the new count,
  // so its cached entry of an older version misses.
  published_snapshots_.IncOrdered();
  published_applied_.store(covers, std::memory_order_release);
  applied_since_publish_ = 0;
  staleness_updates_->Observe(static_cast<double>(staleness));
  const Clock::time_point published_at = Clock::now();
  publish_seconds_->Observe(
      std::chrono::duration<double>(published_at - publish_start).count());
  last_publish_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          published_at.time_since_epoch())
          .count(),
      std::memory_order_release);
  // This publication is the first snapshot covering every update applied
  // since the previous one: their visibility latency ends exactly here.
  for (const Clock::time_point submit_time : pending_visibility_) {
    visibility_seconds_->Observe(
        std::chrono::duration<double>(published_at - submit_time).count());
  }
  pending_visibility_.clear();
}

void BitrussService::CopyAllSlots(PhiSnapshot& snapshot) const {
  const DynamicBipartiteGraph& graph = inc_.Graph();
  snapshot.phi = inc_.PhiBySlot();
  snapshot.support.assign(graph.NumSlots(), 0);
  snapshot.live.assign(graph.NumSlots(), 0);
  snapshot.phi_counts.clear();
  snapshot.phi_block_max.assign(NumPhiBlocks(graph.NumSlots()), 0);
  for (EdgeId slot = 0; slot < graph.NumSlots(); ++slot) {
    if (!graph.IsLive(slot)) continue;
    snapshot.live[slot] = 1;
    snapshot.support[slot] = graph.Support(slot);
    const SupportT phi = snapshot.phi[slot];
    if (phi >= snapshot.phi_counts.size()) {
      snapshot.phi_counts.resize(phi + std::size_t{1}, 0);
    }
    ++snapshot.phi_counts[phi];
    SupportT& block_max = snapshot.phi_block_max[slot / PhiSnapshot::kPhiBlock];
    block_max = std::max(block_max, phi);
  }
}

void BitrussService::PatchTouchedSlots(PhiSnapshot& snapshot,
                                       const std::uint64_t version,
                                       const PhiSnapshot& previous) const {
  const DynamicBipartiteGraph& graph = inc_.Graph();
  const std::vector<SupportT>& phi = inc_.PhiBySlot();
  // Without a compaction the slot table only grows, and every new slot is
  // in some report (it was inserted); resize fills the rest with 0.  The
  // buffers grow by a sixteenth, not the doubling resize would pick, so
  // each recycled one stays close to the slot count it mirrors.
  const EdgeId slots = graph.NumSlots();
  const auto grow = [slots](auto& vec) {
    if (vec.capacity() < slots) vec.reserve(slots + slots / 16);
    vec.resize(slots, 0);
  };
  grow(snapshot.phi);
  grow(snapshot.support);
  grow(snapshot.live);
  for (std::uint64_t v = snapshot.version + 1; v <= version; ++v) {
    for (const EdgeId slot : kept_reports_[v % kKeptReports].slots) {
      const bool live = graph.IsLive(slot);
      snapshot.phi[slot] = phi[slot];
      snapshot.support[slot] = live ? graph.Support(slot) : 0;
      snapshot.live[slot] = live ? 1 : 0;
    }
  }
  // The histogram and the block maxima move from the previous
  // publication's by this batch's report alone: each listed slot leaves its
  // old level and joins its new, and raises its block's max.  A block whose
  // max slot dropped is marked kStale and rescanned once, after the pass.
  const std::vector<EdgeId>& report =
      kept_reports_[version % kKeptReports].slots;
  std::vector<std::uint64_t>& counts = snapshot.phi_counts;
  counts = previous.phi_counts;
  std::vector<SupportT>& block_max = snapshot.phi_block_max;
  block_max = previous.phi_block_max;
  block_max.resize(NumPhiBlocks(slots), 0);
  for (const EdgeId slot : report) {
    const SupportT old_phi = previous.Phi(slot);
    SupportT& max = block_max[slot / PhiSnapshot::kPhiBlock];
    if (phi[slot] > max) {
      max = phi[slot];
    } else if (phi[slot] < old_phi && old_phi == max) {
      max = kStale;
    }
    if (previous.IsLive(slot)) --counts[old_phi];
    if (!graph.IsLive(slot)) continue;
    if (phi[slot] >= counts.size()) {
      counts.resize(phi[slot] + std::size_t{1}, 0);
    }
    ++counts[phi[slot]];
  }
  while (!counts.empty() && counts.back() == 0) counts.pop_back();
  for (const EdgeId slot : report) {
    SupportT& max = block_max[slot / PhiSnapshot::kPhiBlock];
    if (max != kStale) continue;
    const EdgeId first = slot - slot % PhiSnapshot::kPhiBlock;
    const auto begin = snapshot.phi.begin() + first;
    max = *std::max_element(
        begin, begin + std::min(PhiSnapshot::kPhiBlock, slots - first));
  }
}

void BitrussService::WriterLoop() {
  const bool timed = options_.publish_interval_ms > 0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(options_.publish_interval_ms));
  Clock::time_point last_publish = Clock::now();

  for (;;) {
    bool stop = false;
    bool drain = true;
    batch_.clear();
    {
      MutexLock lock(mu_);
      while (!(stopping_ || (!paused_ && !queue_.empty()))) {
        if (!timed || applied_since_publish_ == 0) {
          queue_cv_.Wait(lock);
        } else if (queue_cv_.WaitUntil(lock, last_publish + interval) ==
                   std::cv_status::timeout) {
          // Unpublished work exists: wake by the publication deadline even
          // if no new update arrives.
          break;
        }
      }
      stop = stopping_;
      drain = drain_on_stop_;
      if (stop && !drain) {
        queue_.clear();
        queue_depth_.Set(0);
      } else if (!paused_ || stop) {
        const std::uint64_t take =
            std::min<std::uint64_t>(queue_.size(), BatchLimit());
        for (std::uint64_t i = 0; i < take; ++i) {
          batch_.push_back(queue_.front().update);
          pending_visibility_.push_back(queue_.front().submit_time);
          queue_.pop_front();
        }
        queue_depth_.Set(static_cast<std::int64_t>(queue_.size()));
      }
    }

    if (!batch_.empty()) ApplyBatch();

    bool queue_empty;
    {
      MutexLock lock(mu_);
      queue_empty = queue_.empty();
    }
    if (applied_since_publish_ > 0) {
      const bool count_due =
          options_.publish_every_updates != 0 &&
          applied_since_publish_ >= options_.publish_every_updates;
      const bool time_due = timed && Clock::now() >= last_publish + interval;
      // An idle writer always publishes, so staleness converges to 0 the
      // moment the ingest queue drains.
      if (queue_empty || count_due || time_due) {
        PublishSnapshot();
        last_publish = Clock::now();
        NotifyDrained();
      }
    }

    if (stop && queue_empty) {
      // The idle publish above already covered every applied update.
      if (wal_ != nullptr && !Degraded()) {
        if (drain) {
          // A drained shutdown ends with a snapshot covering everything
          // applied, so the next start replays zero WAL records.
          WriteDurableSnapshot();
        } else if (Status st = wal_->Sync(); !st.ok()) {
          // Discarded-queue shutdown: those updates were still
          // acknowledged, so seal the WAL tail — recovery replays them.
          EnterDegraded("WAL sync at shutdown failed: " + st.message());
        }
      }
      NotifyDrained();
      return;
    }
  }
}

}  // namespace bitruss
