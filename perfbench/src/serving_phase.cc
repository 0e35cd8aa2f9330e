#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "phases.h"
#include "util/random.h"

namespace perfbench {

using bitruss::BitrussService;
using bitruss::BitrussServiceOptions;
using bitruss::EdgeUpdate;
using bitruss::PhiSnapshot;
using bitruss::Status;
using bitruss::StatusCode;

namespace {

constexpr int kReaders = 2;

/// Steady clock relative to the open loop's start, for RunSchedule.
class OpenLoopClock {
 public:
  explicit OpenLoopClock(std::int64_t origin) : origin_(origin) {}
  std::int64_t Now() const { return NowNs() - origin_; }
  void WaitUntil(std::int64_t t) {
    for (std::int64_t left = t - Now(); left > 0; left = t - Now()) {
      if (left > 300'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200'000));
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  std::int64_t origin_;
};

/// What one reader thread measured during the open loop.
struct ReaderTally {
  Samples read_ns;   ///< every timed read call
  Samples point_ns;  ///< Snapshot() plus its 4 point Phi reads
  Samples topk_ns;
  Samples histogram_ns;
  Samples staleness;  ///< writer-applied minus snapshot-applied
  std::uint64_t reads = 0;
  std::uint64_t sink = 0;  ///< folds every read result so none is elided
  /// (applied_updates, time) whenever this reader first held a newer
  /// snapshot.
  std::vector<std::pair<std::uint64_t, std::int64_t>> observed;
};

void ReaderLoop(RunContext& ctx, const BitrussService& service, int index,
                std::uint32_t parent, const std::atomic<bool>& stop,
                std::atomic<std::uint64_t>& max_seen, ReaderTally& tally) {
  PinThisThread(index);
  ScopedSpan span(ctx.trace, "serve.reader", parent);
  bitruss::Rng rng(DeriveSeed(ctx.seed, index == 0 ? "probe/0" : "probe/1"));
  std::uint64_t local_max = 0;
  std::uint64_t sink = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const std::int64_t start = NowNs();
    const auto snap = service.Snapshot();
    const std::int64_t acquired = NowNs();
    const std::uint64_t slots = snap->num_slots;
    for (int i = 0; i < 4; ++i) {
      sink += snap->Phi(static_cast<bitruss::EdgeId>(rng.Below(slots)));
    }
    const auto point = static_cast<std::uint64_t>(NowNs() - start);
    tally.point_ns.Add(point);
    tally.read_ns.Add(point);
    const std::uint64_t applied = snap->applied_updates;
    const std::uint64_t writer = service.AppliedUpdates();
    tally.staleness.Add(writer > applied ? writer - applied : 0);
    if (applied > local_max) {
      local_max = applied;
      tally.observed.emplace_back(applied, acquired);
      std::uint64_t seen = max_seen.load(std::memory_order_relaxed);
      while (applied > seen &&
             !max_seen.compare_exchange_weak(seen, applied,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
      }
    }
    tally.reads += 4;
    if (tally.reads % 1024 == 0) {
      const std::int64_t s = NowNs();
      sink += service.TopKPhi(8).size();
      const std::int64_t e = NowNs();
      tally.topk_ns.Add(static_cast<std::uint64_t>(e - s));
      tally.read_ns.Add(static_cast<std::uint64_t>(e - s));
      if (ctx.trace != nullptr) ctx.trace->Add("serve.TopKPhi", span.id(), s, e);
    }
    if (tally.reads % 4096 == 0) {
      const std::int64_t s = NowNs();
      sink += service.PhiHistogram().size();
      const std::int64_t e = NowNs();
      tally.histogram_ns.Add(static_cast<std::uint64_t>(e - s));
      tally.read_ns.Add(static_cast<std::uint64_t>(e - s));
      if (ctx.trace != nullptr) {
        ctx.trace->Add("serve.PhiHistogram", span.id(), s, e);
      }
    }
  }
  tally.reads += tally.topk_ns.Count() + tally.histogram_ns.Count();
  tally.sink = sink;
}

/// Submits one update, timing the call into `samples` (and the trace).
Status TimedSubmit(RunContext& ctx, BitrussService& service,
                   const EdgeUpdate& update, std::uint32_t parent,
                   Samples& samples) {
  const std::int64_t s = NowNs();
  Status status = service.Submit(update);
  const std::int64_t e = NowNs();
  samples.Add(static_cast<std::uint64_t>(e - s));
  if (ctx.trace != nullptr) ctx.trace->Add("serve.Submit", parent, s, e);
  return status;
}

/// Submits the workload's backlog prefix of `stream` as fast as
/// backpressure allows (refusals are retried), then waits until they are
/// published; appends the accepted updates to `accepted`.  Returns the
/// retries.
std::uint64_t SubmitBacklog(RunContext& ctx, BitrussService& service,
                            const std::vector<EdgeUpdate>& stream,
                            std::uint32_t parent, Samples& submit_ns,
                            std::vector<EdgeUpdate>& accepted) {
  std::uint64_t retries = 0;
  for (std::size_t next = 0; next < ctx.spec.backlog_updates; ++next) {
    Status status = TimedSubmit(ctx, service, stream[next], parent, submit_ns);
    while (status.code() == StatusCode::kResourceExhausted) {
      // A full queue holds thousands of updates; pausing briefly keeps
      // retries (and their spans) few without starving the writer.
      ++retries;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      status = TimedSubmit(ctx, service, stream[next], parent, submit_ns);
    }
    ++ctx.report.attempted;
    if (!status.ok()) {
      ctx.report.Mismatch("backlog Submit: " + status.ToString());
    } else {
      accepted.push_back(stream[next]);
    }
  }
  Status drained;
  {
    ScopedSpan span(ctx.trace, "serve.drain_wait", parent);
    drained = WaitPublished(service, accepted.size());
  }
  if (!drained.ok()) ctx.report.Mismatch("backlog drain: " + drained.ToString());
  return retries;
}

}  // namespace

BitrussServiceOptions ServiceOptions(const std::string& dir) {
  BitrussServiceOptions options;
  options.incremental.decompose.parallel.num_threads = 1;
  options.persist.dir = dir;
  options.persist.fsync_policy = bitruss::persist::FsyncPolicy::kEveryPublish;
  return options;
}

bool SamePhi(const PhiSnapshot& a, const PhiSnapshot& b) {
  return a.num_edges == b.num_edges && a.phi == b.phi && a.live == b.live;
}

void PinThisThread(int index) {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  if (allowed.size() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < allowed.size(); ++i) {
    if (index < 0 || static_cast<std::size_t>(index) == i) {
      CPU_SET(allowed[i], &set);
    }
  }
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

Status WaitPublished(const BitrussService& service, std::uint64_t accepted) {
  const std::int64_t give_up = NowNs() + 60'000'000'000;
  while (service.Snapshot()->applied_updates < accepted) {
    if (NowNs() > give_up) {
      return Status(StatusCode::kUnavailable,
                    "no snapshot covered the accepted updates within 60 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return bitruss::OkStatus();
}

double ReadMixBlockCpuNs(const BitrussService& service, bitruss::Rng& rng,
                         std::uint64_t& sink) {
  const std::int64_t cpu = ThreadCpuNs();
  sink += service.PhiHistogram().size();
  for (int k = 0; k < 4; ++k) sink += service.TopKPhi(8).size();
  for (std::uint64_t reads = 5; reads < kReadBlock; reads += 4) {
    const auto snap = service.Snapshot();
    const std::uint64_t slots = snap->num_slots;
    for (int i = 0; i < 4; ++i) {
      sink += snap->Phi(static_cast<bitruss::EdgeId>(rng.Below(slots)));
    }
  }
  return static_cast<double>(ThreadCpuNs() - cpu) /
         static_cast<double>(kReadBlock);
}

void RunServingPhase(RunContext& ctx, const bitruss::BipartiteGraph& start,
                     const std::vector<EdgeUpdate>& stream,
                     ServingOutcome& out) {
  Report& report = ctx.report;
  const WorkloadSpec& spec = ctx.spec;
  const std::string dir = ctx.work_dir + "/serve";

  // -- Set-up: the constructor decomposes the start graph, opens the WAL
  // and writes the initial durable snapshot.
  std::unique_ptr<BitrussService> service;
  {
    ScopedSpan phase(ctx.trace, "phase.setup", ctx.run_span);
    ResetDir(dir);
    ++report.attempted;
    PinThisThread(3);  // the writer thread inherits this CPU
    {
      ScopedSpan span(ctx.trace, "serve.BitrussService", phase.id());
      service = std::make_unique<BitrussService>(start, ServiceOptions(dir));
    }
    PinThisThread(-1);
  }

  Samples submit_ns;

  // -- Backlog: a fixed prefix as fast as backpressure allows, timed from
  // the first Submit until a snapshot covers the backlog.
  {
    ScopedSpan phase(ctx.trace, "phase.backlog", ctx.run_span);
    PinThisThread(2);
    const std::int64_t start_ns = NowNs();
    const std::uint64_t retries =
        SubmitBacklog(ctx, *service, stream, phase.id(), submit_ns, out.accepted);
    out.backlog_wall_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
    out.backlog_count = out.accepted.size();
    report.Set("ingest_updates_per_s",
               static_cast<double>(out.backlog_count) / out.backlog_wall_s,
               "1/s");
    report.Set("serve.backlog_retries", static_cast<double>(retries), "count");
  }

  // -- Open loop: Poisson arrivals from one generator thread (this one)
  // against two closed-loop readers and the service's writer thread.
  {
    ScopedSpan phase(ctx.trace, "phase.open_loop", ctx.run_span);
    const std::size_t arrivals = OpenLoopArrivals(spec, ctx.seconds);
    const std::vector<std::int64_t> schedule = PoissonSchedule(
        DeriveSeed(ctx.seed, "schedule"), spec.open_rate, arrivals);

    const std::int64_t origin = NowNs() + 1'000'000;  // 1 ms lead

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> max_seen{0};
    std::vector<ReaderTally> tallies(kReaders);
    const std::int64_t window_start = NowNs();
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back(ReaderLoop, std::ref(ctx), std::cref(*service), r,
                           phase.id(), std::cref(stop),
                           std::ref(max_seen), std::ref(tallies[r]));
    }

    // Due time (absolute NowNs) of each accepted open-loop update.
    std::vector<std::int64_t> due;
    due.reserve(arrivals);
    std::uint64_t refused = 0;
    std::uint64_t queue_max = 0;
    OpenLoopClock clock(origin);
    const std::vector<std::int64_t> lateness =
        RunSchedule(schedule, clock, [&](std::size_t i) {
          const EdgeUpdate& update = stream[spec.backlog_updates + i];
          const Status status =
              TimedSubmit(ctx, *service, update, phase.id(), submit_ns);
          queue_max = std::max(queue_max, service->QueueDepth());
          if (status.ok()) {
            out.accepted.push_back(update);
            due.push_back(origin + schedule[i]);
          } else {
            ++refused;  // never retried: a refusal is a failed operation
          }
        });
    Status drained;
    {
      ScopedSpan span(ctx.trace, "serve.drain_wait", phase.id());
      drained = WaitPublished(*service, out.accepted.size());
    }
    if (!drained.ok()) report.Mismatch("open-loop drain: " + drained.ToString());
    // Readers keep polling until one has seen a snapshot covering every
    // accepted update, so each update's visibility is observed, not
    // inferred from the writer's progress.
    const std::uint64_t total = out.accepted.size();
    for (int waited_ms = 0;
         max_seen.load(std::memory_order_acquire) < total && waited_ms < 10000;
         ++waited_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    const std::int64_t window_end = NowNs();

    report.attempted += arrivals;
    report.failed += refused;

    ReaderTally all;
    for (ReaderTally& t : tallies) {
      all.read_ns.Merge(t.read_ns);
      all.point_ns.Merge(t.point_ns);
      all.topk_ns.Merge(t.topk_ns);
      all.histogram_ns.Merge(t.histogram_ns);
      all.staleness.Merge(t.staleness);
      all.reads += t.reads;
      all.observed.insert(all.observed.end(), t.observed.begin(),
                          t.observed.end());
    }

    const std::vector<std::int64_t> first =
        FirstVisible(all.observed, total);
    Samples visible_ns;
    for (std::size_t j = 0; j < due.size(); ++j) {
      const std::int64_t seen = first[out.backlog_count + j + 1];
      if (seen < 0) {
        report.Mismatch("an accepted update was never observed visible");
        break;
      }
      visible_ns.Add(static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, seen - due[j])));
    }
    report.SetQuantile("visible_p50_ms", visible_ns, 0.50, 1e6, "ms");
    report.SetQuantile("visible_p99_ms", visible_ns, 0.99, 1e6, "ms");

    report.Set("read_qps",
               static_cast<double>(all.reads) /
                   (static_cast<double>(window_end - window_start) * 1e-9),
               "1/s");
    report.SetQuantile("read_p50_us", all.read_ns, 0.50, 1e3, "us");
    report.SetQuantile("read_p99_us", all.read_ns, 0.99, 1e3, "us");
    report.attempted += all.point_ns.Count() + all.topk_ns.Count() +
                        all.histogram_ns.Count();

    report.SetQuantile("serve.read_phi_p99_us", all.point_ns, 0.99, 1e3, "us");
    report.SetQuantile("serve.read_topk_p99_us", all.topk_ns, 0.99, 1e3, "us");
    report.SetQuantile("serve.read_histogram_p50_us", all.histogram_ns, 0.50,
                       1e3, "us");
    report.SetQuantile("serve.read_histogram_p99_us", all.histogram_ns, 0.99,
                       1e3, "us");
    report.SetQuantile("serve.staleness_p99_updates", all.staleness, 0.99, 1,
                       "updates");

    // Gaps between successive first observations of newer snapshots.
    std::vector<std::int64_t> seen_times;
    for (std::uint64_t k = 1; k < first.size(); ++k) {
      if (first[k] >= 0 && (seen_times.empty() || first[k] != seen_times.back())) {
        seen_times.push_back(first[k]);
      }
    }
    Samples gap_ns;
    for (std::size_t i = 1; i < seen_times.size(); ++i) {
      gap_ns.Add(static_cast<std::uint64_t>(seen_times[i] - seen_times[i - 1]));
    }
    report.SetQuantile("serve.publish_gap_p99_ms", gap_ns, 0.99, 1e6, "ms");

    Samples late_ns;
    for (const std::int64_t l : lateness) late_ns.Add(static_cast<std::uint64_t>(l));
    report.SetQuantile("load.late_p99_ms", late_ns, 0.99, 1e6, "ms");
    report.Set("load.offered", static_cast<double>(arrivals), "count");
    report.Set("serve.refused", static_cast<double>(refused), "count");
    report.Set("serve.queue_depth_max", static_cast<double>(queue_max),
               "count");
  }

  report.SetQuantile("serve.submit_p50_us", submit_ns, 0.50, 1e3, "us");
  report.SetQuantile("serve.submit_p99_us", submit_ns, 0.99, 1e3, "us");

  // -- Crash: record the final phi and stop without draining.  The
  // directory left behind is what the interleaved Recover calls start from.
  {
    ScopedSpan phase(ctx.trace, "phase.crash", ctx.run_span);
    PinThisThread(-1);
    out.final_snapshot = service->Snapshot();
    const bitruss::BitrussServiceStats stats = service->Stats();
    report.Set("serve.apply_failures",
               static_cast<double>(stats.apply_failures), "count");
    report.Set("serve.publishes",
               static_cast<double>(stats.published_snapshots), "count");
    report.failed += stats.apply_failures;
    if (out.final_snapshot->applied_updates != out.accepted.size()) {
      report.Mismatch("final snapshot does not cover every accepted update");
    }
    {
      ScopedSpan span(ctx.trace, "serve.Shutdown", phase.id());
      service->Shutdown(/*drain=*/false);
    }
    service.reset();
    out.crashed_dir = ctx.work_dir + "/crashed";
    CopyDir(dir, out.crashed_dir);
    RemoveDir(dir);
  }
}

}  // namespace perfbench
