#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/decompose.h"
#include "phases.h"

namespace perfbench {

using bitruss::BipartiteGraph;
using bitruss::BitrussService;

namespace {

// Parts of the interleaved window.  Decompose, the service repetition and
// Recover carry the workloads' work; the CSR build and the read blocks are
// short, so a smaller part still gives them many repetitions.
constexpr double kCsrPart = 0.03;
constexpr double kDecomposePart = 0.15;
constexpr double kServicePart = 0.3;
constexpr double kRecoverPart = 0.4;
constexpr double kReadPart = 0.07;
constexpr double kReferencePart = 0.05;
/// Repetitions a measurement other than the reference kernel makes at
/// most: medians of more are no steadier, while the long repetitions (a
/// github-churn Recover, a decompose-tracker service) fit only a few in
/// their parts and get the time the short ones leave.
constexpr std::size_t kMaxReps = 300;

/// Reference kernel runs within this distance of a repetition's start set
/// its scale.  The host's slow spells last seconds; a Recover repetition
/// takes up to about 1.5 s, so the window reaches the kernel runs on both
/// sides of it.
constexpr std::int64_t kKernelWindowNs = 2'000'000'000;

/// The CPU (index among the process's CPUs) of the interleaved phase.
constexpr int kInterleavedCpu = 1;

/// A value measured by a repetition that started at `at_ns` (NowNs()).
struct Stamped {
  std::int64_t at_ns = 0;
  double value = 0;
};

std::vector<Stamped> CpuOf(const std::vector<CallTime>& times) {
  std::vector<Stamped> cpu;
  for (const CallTime& t : times) cpu.push_back({t.start_ns, t.cpu_s});
  return cpu;
}

double MedianWall(const std::vector<CallTime>& times) {
  std::vector<double> wall;
  for (const CallTime& t : times) wall.push_back(t.wall_s);
  return Median(std::move(wall));
}

/// Median of `samples`, each first multiplied by kReferenceKernelMs over
/// the median time (ms) of the reference kernel runs in `kernel` (seconds,
/// in start order) within kKernelWindowNs of it.  Scaling each repetition
/// by the kernel runs around it takes out how fast the host ran at that
/// moment, which a single scale for the whole run cannot.
double KernelScaledMedian(const std::vector<Stamped>& samples,
                          const std::vector<Stamped>& kernel) {
  const auto by_time = [](const Stamped& a, const Stamped& b) {
    return a.at_ns < b.at_ns;
  };
  std::vector<double> scaled;
  for (const Stamped& s : samples) {
    auto first =
        std::lower_bound(kernel.begin(), kernel.end(),
                         Stamped{s.at_ns - kKernelWindowNs, 0}, by_time);
    auto last =
        std::upper_bound(kernel.begin(), kernel.end(),
                         Stamped{s.at_ns + kKernelWindowNs, 0}, by_time);
    if (first == last) {
      first = kernel.begin();
      last = kernel.end();
    }
    std::vector<double> near;
    for (auto it = first; it != last; ++it) near.push_back(it->value);
    const double kernel_ms = Median(std::move(near)) * 1e3;
    if (kernel_ms > 0) {
      scaled.push_back(s.value * kReferenceKernelMs / kernel_ms);
    }
  }
  return Median(std::move(scaled));
}

}  // namespace

void RunInterleavedPhase(
    RunContext& ctx,
    const std::vector<std::pair<bitruss::VertexId, bitruss::VertexId>>& edges,
    const std::vector<bitruss::EdgeUpdate>& stream,
    const DecomposeOutcome& start, ServingOutcome& serving) {
  ScopedSpan phase(ctx.trace, "phase.interleaved", ctx.run_span);
  // Every repetition, the writers of the services it creates and the
  // reference kernel share one CPU: the host slows its CPUs unevenly, and
  // the kernel can only stand for the speed of the CPU it runs on.
  PinThisThread(kInterleavedCpu);
  Report& report = ctx.report;
  const WorkloadSpec& spec = ctx.spec;
  // The read blocks run against a service recovered from the crash, so
  // they read the workload's final state.
  const std::string reader_dir = ctx.work_dir + "/reader";
  CopyDir(serving.crashed_dir, reader_dir);
  auto reader = BitrussService::Recover(start.graph, ServiceOptions(reader_dir),
                                        nullptr);
  if (!reader.ok()) {
    report.Mismatch("Recover for the read blocks: " +
                    reader.status().ToString());
    return;
  }

  const std::string dir = ctx.work_dir + "/serve";
  bitruss::DecomposeOptions options;  // BiT-BU++
  options.parallel.num_threads = 1;
  bitruss::Rng rng(DeriveSeed(ctx.seed, "probe/mix"));
  std::uint64_t sink = 0;
  bool first_recovery = true;

  std::vector<CallTime> csr;
  std::vector<CallTime> decompose;
  std::vector<CallTime> setup;
  std::vector<CallTime> recover;
  std::vector<Stamped> ingest_us;  // CPU per accepted backlog update
  std::vector<Stamped> read_ns;    // CPU per read of a read-mix block
  std::vector<Stamped> reference_s;
  ReferenceKernel kernel;

  std::vector<Measurement> measurements = {
      {"csr", kCsrPart,
       [&] {
         auto copy = edges;  // the constructor consumes its input
         BipartiteGraph graph;
         ++report.attempted;
         csr.push_back(TimedCall(ctx, "graph.BipartiteGraph", phase.id(), [&] {
           graph = BipartiteGraph(spec.num_upper, spec.num_lower,
                                  std::move(copy));
         }));
         if (graph.NumEdges() != start.graph.NumEdges()) {
           report.Mismatch("a repeated CSR build has another edge count");
         }
       },
       kMaxReps},
      {"decompose", kDecomposePart,
       [&] {
         bitruss::BitrussResult result;
         ++report.attempted;
         decompose.push_back(TimedCall(ctx, "core.Decompose", phase.id(), [&] {
           result = bitruss::Decompose(start.graph, options);
         }));
         if (result.phi != start.result.phi) {
           report.Mismatch("a repeated Decompose gave another phi");
         }
       },
       kMaxReps},
      {"service", kServicePart,
       [&] {
         ResetDir(dir);
         std::unique_ptr<BitrussService> service;
         ++report.attempted;
         setup.push_back(
             TimedCall(ctx, "serve.BitrussService", phase.id(), [&] {
               service =
                   std::make_unique<BitrussService>(start.graph,
                                                    ServiceOptions(dir));
             }));
         // The backlog prefix in queue-sized chunks, each submitted while
         // the writer is paused and then drained: the writer always works
         // from a full queue, so how often it publishes does not depend on
         // which thread ran ahead.  The ingest cost is this thread's CPU in
         // Submit (validation, WAL append, enqueue) plus the process's CPU
         // from Resume until a snapshot covers the chunk (apply, publish,
         // fsync), when only the writer works.  Wake-ups of the paused
         // writer, whose count depends on scheduling, fall outside both.
         const std::size_t chunk = ServiceOptions(dir).queue_capacity;
         const std::int64_t backlog_start = NowNs();
         std::size_t accepted = 0;
         std::int64_t cpu_ns = 0;
         {
           ScopedSpan span(ctx.trace, "serve.backlog", phase.id());
           for (std::size_t begin = 0; begin < spec.backlog_updates;
                begin += chunk) {
             const std::size_t end =
                 std::min(spec.backlog_updates, begin + chunk);
             service->Pause();
             const std::int64_t submit_cpu = ThreadCpuNs();
             for (std::size_t i = begin; i < end; ++i) {
               const bitruss::Status status = service->Submit(stream[i]);
               if (status.ok()) {
                 ++accepted;
               } else {
                 report.Mismatch("backlog Submit: " + status.ToString());
               }
             }
             const std::int64_t drain_cpu = ProcessCpuNs();
             cpu_ns += ThreadCpuNs() - submit_cpu;
             service->Resume();
             if (const bitruss::Status drained =
                     WaitPublished(*service, accepted);
                 !drained.ok()) {
               report.Mismatch("backlog drain: " + drained.ToString());
             }
             cpu_ns += ProcessCpuNs() - drain_cpu;
           }
         }
         report.attempted += spec.backlog_updates;
         ingest_us.push_back(
             {backlog_start,
              static_cast<double>(cpu_ns) * 1e-3 /
                  static_cast<double>(std::max<std::size_t>(1, accepted))});
         service->Shutdown(/*drain=*/false);
       },
       kMaxReps},
      {"recover", kRecoverPart,
       [&] {
         CopyDir(serving.crashed_dir, dir);
         bitruss::RecoveryStats stats;
         bitruss::StatusOr<std::unique_ptr<BitrussService>> recovered =
             bitruss::Status(bitruss::StatusCode::kInternal, "not run");
         ++report.attempted;
         recover.push_back(TimedCall(ctx, "serve.Recover", phase.id(), [&] {
           recovered =
               BitrussService::Recover(start.graph, ServiceOptions(dir), &stats);
         }));
         if (first_recovery) serving.recovery = stats;
         first_recovery = false;
         if (!recovered.ok()) {
           report.Mismatch("Recover: " + recovered.status().ToString());
           return;
         }
         if (!SamePhi(*recovered.value()->Snapshot(), *serving.final_snapshot)) {
           report.Mismatch("recovered phi differs from the phi before the crash");
         }
         recovered.value()->Shutdown(/*drain=*/false);
       },
       kMaxReps},
      {"reference", kReferencePart,
       [&] {
         const std::int64_t at = NowNs();
         reference_s.push_back({at, kernel.Run()});
       }},
      {"read", kReadPart,
       [&] {
         report.attempted += kReadBlock;
         const std::int64_t at = NowNs();
         read_ns.push_back({at, ReadMixBlockCpuNs(*reader.value(), rng, sink)});
       },
       kMaxReps},
  };
  RunInterleaved(kInterleavedShare * ctx.seconds, measurements);
  PinThisThread(-1);
  reader.value()->Shutdown(/*drain=*/false);
  RemoveDir(reader_dir);
  RemoveDir(dir);
  if (sink == 0) report.Mismatch("the read blocks read nothing");
  if (kernel.Sink() == 0) report.Mismatch("the reference kernel did nothing");

  std::printf("interleaved repetitions:");
  for (const Measurement& m : measurements) {
    std::printf(" %s=%zu (%.2f s)", m.name, m.reps, m.spent_s);
  }
  std::vector<double> kernel_s;
  for (const Stamped& k : reference_s) kernel_s.push_back(k.value);
  const double reference_ms = Median(std::move(kernel_s)) * 1e3;
  std::printf("\nreference kernel: median %.4f ms (end-to-end timings are "
              "scaled to %.1f ms)\n",
              reference_ms, kReferenceKernelMs);
  report.Set("host.reference_ms", reference_ms, "ms");

  const auto scaled = [&](const std::vector<Stamped>& samples) {
    return KernelScaledMedian(samples, reference_s);
  };
  report.Set("setup_s", scaled(CpuOf(spec.setup_is_service ? setup : csr)),
             "s");
  report.Set("graph.csr_build_s", MedianWall(csr), "s");
  report.Set("decompose_cpu_s", scaled(CpuOf(decompose)), "s");
  const double decompose_s = MedianWall(decompose);
  report.Set("decompose_s", decompose_s, "s");
  report.Set("core.recompute_ms", decompose_s * 1e3, "ms");
  if (ctx.trace != nullptr) {
    report.Set("core.peel_s",
               decompose_s - report.metrics["butterfly.count_s"].value -
                   report.metrics["core.index_build_s"].value,
               "s");
  }
  report.Set("ingest_cpu_us_per_update", scaled(ingest_us), "us");
  report.Set("recover_cpu_s", scaled(CpuOf(recover)), "s");
  serving.recover_s = MedianWall(recover);
  report.Set("recover_s", serving.recover_s, "s");
  report.Set("read_cpu_ns", scaled(read_ns), "ns");
}

}  // namespace perfbench
