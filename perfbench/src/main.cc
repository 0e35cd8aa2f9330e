// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir DIR] [--spans PATH]
//
// One run executes one workload (see workload.cc) in this process: the
// scenario once (decompose phase, serving phases up to a crash), then the
// interleaved repetitions the end-to-end metrics come from, then the
// correctness gate.  With
// --trace 1 it also records spans around every library call it makes,
// replays the accepted updates through the dynamic and persist layers on
// their own, derives the per-layer metrics and checks the workload's
// premise.  Human-readable lines come first; the last line of stdout is
// one JSON object {"correct", "attempted", "failed", "options",
// "predicted_dominant", "metrics"} carrying every metric the run measured,
// percentiles with their sample counts.  perfbench/run.py selects the
// metrics BENCHMARK.json names from it.  Any correctness mismatch or failed
// premise makes the exit code 1.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "phases.h"
#include "span_trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr;
}

/// A "Vm...:" line of /proc/self/status, in MB.
double ProcStatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Resets the process's peak resident size (VmHWM) to its current size.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// One pass of a workload; fills `report`.
void RunWorkload(const WorkloadSpec& spec, const Args& args,
                 SpanRecorder* trace, Report& report) {
  ScopedSpan run(trace, "run", SpanRecorder::kNoParent);
  RunContext ctx{spec, args.seed, args.seconds, trace, run.id(),
                 args.work_dir, report};
  ResetDir(ctx.work_dir);

  const WorkloadInput input = MakeInput(
      spec, args.seed,
      spec.backlog_updates + OpenLoopArrivals(spec, args.seconds));
  // peak_rss_mb covers the scenario: the generated inputs and the
  // list of accepted updates (touched here at full size) are resident
  // before the high-water mark is reset, and the benchmark's sample
  // storage is a few MB at most.
  ServingOutcome serving;
  serving.accepted.resize(input.stream.size());
  serving.accepted.clear();
  ResetPeakRss();
  const double inputs_mb = ProcStatusMb("VmRSS");

  const DecomposeOutcome decomposed = RunDecomposePhase(ctx, input.edges);
  RunServingPhase(ctx, decomposed.graph, input.stream, serving);
  const double peak_mb = ProcStatusMb("VmHWM");
  report.Set("peak_rss_mb", peak_mb, "MB");
  std::printf("memory: %.1f MB resident before the scenario, %.1f MB peak "
              "during it\n",
              inputs_mb, peak_mb);
  RunInterleavedPhase(ctx, input.edges, input.stream, decomposed, serving);
  RemoveDir(serving.crashed_dir);

  const bitruss::DynamicBipartiteGraph final_graph =
      CheckFinalPhi(ctx, decomposed, serving);

  if (trace != nullptr) {
    const DynamicReplay dynamic =
        ReplayIncremental(ctx, decomposed.graph, serving);
    const PersistReplay persist = ReplayPersist(ctx, final_graph, serving);
    auto& m = report.metrics;
    report.Set("dynamic.fallback_excess_ms",
               m["dynamic.fallback_p50_ms"].value -
                   m["dynamic.snapshot_csr_ms"].value -
                   m["core.recompute_ms"].value,
               "ms");

    // Self times: the service's own share of a wall once the dynamic and
    // persist work for the same updates (measured alone) is taken out.
    const std::size_t n = serving.backlog_count;
    std::int64_t backlog_layers_ns = 0;
    for (std::size_t i = 0; i < n && i < dynamic.update_ns.size(); ++i) {
      backlog_layers_ns += dynamic.update_ns[i];
    }
    for (std::size_t i = 0; i < n && i < persist.append_ns.size(); ++i) {
      backlog_layers_ns += persist.append_ns[i];
    }
    report.Set("serve.drain_self_s",
               serving.backlog_wall_s - 1e-9 * backlog_layers_ns, "s");

    const std::uint64_t replayed = serving.recovery.wal_replayed;
    std::int64_t replay_apply_ns = 0;
    for (std::size_t i = dynamic.update_ns.size() -
                         std::min<std::size_t>(replayed,
                                               dynamic.update_ns.size());
         i < dynamic.update_ns.size(); ++i) {
      replay_apply_ns += dynamic.update_ns[i];
    }
    const double parse_s =
        persist.records == 0
            ? 0
            : persist.replay_parse_s * static_cast<double>(replayed) /
                  static_cast<double>(persist.records);
    const double snapshot_io_s =
        persist.snapshot_write_s +
        (serving.recovery.snapshot_applied > 0 ? persist.snapshot_load_s : 0);
    report.Set("serve.recover_self_s",
               serving.recover_s - parse_s - 1e-9 * replay_apply_ns -
                   snapshot_io_s,
               "s");
  }
  RemoveDir(ctx.work_dir);
}

/// Confirms the premise the workload was chosen for (traced runs); a
/// failed premise is a mismatch, since the workload no longer measures
/// what it claims to.
void CheckPremise(const WorkloadSpec& spec, const SpanRecorder& trace,
                  Report& report) {
  auto& m = report.metrics;
  const double apply_s = m["dynamic.apply_s"].value;
  const double fallback_s = m["dynamic.fallback_s"].value;
  const double share = m["dynamic.fallback_share"].value;
  std::printf("premise: fallback_s/apply_s=%.3f fallback_share=%.5f\n",
              apply_s > 0 ? fallback_s / apply_s : 0.0, share);
  switch (spec.premise) {
    case Premise::kDecomposeOnlyCore:
      for (const auto& [layer, count] : trace.LayerCounts("phase.decompose")) {
        if (layer != "graph" && layer != "butterfly" && layer != "core") {
          report.Mismatch("premise: the decompose phase recorded " +
                          std::to_string(count) + " " + layer + " spans");
        }
      }
      break;
    case Premise::kFallbackDominates:
      if (!(fallback_s > 0.5 * apply_s)) {
        report.Mismatch(
            "premise: fallbacks took no more than half of dynamic.apply_s");
      }
      break;
    case Premise::kLocalRepair:
      if (!(share <= 0.01)) {
        report.Mismatch("premise: more than 1% of updates fell back");
      }
      break;
  }
}

void PrintTrace(const SpanRecorder& trace) {
  std::printf("spans by layer under each phase:\n");
  for (const char* phase :
       {"phase.decompose", "phase.setup", "phase.backlog", "phase.open_loop",
        "phase.crash", "phase.interleaved", "phase.gate",
        "phase.dynamic_replay", "phase.persist_replay"}) {
    std::printf("  %-22s", phase);
    for (const auto& [layer, count] : trace.LayerCounts(phase)) {
      std::printf(" %s=%llu", layer.c_str(),
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }
  std::printf("self times (s) by span name:\n");
  for (const auto& [name, t] : trace.Reduce()) {
    std::printf("  %-34s calls=%-9llu total=%.6f self=%.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.calls), 1e-9 * t.total_ns,
                1e-9 * t.self_ns);
  }
}

void PrintMetric(const std::string& name, const Metric& m) {
  std::printf("  %-34s %16.6f %-8s", name.c_str(), m.value, m.unit.c_str());
  if (m.percentile) {
    std::printf(" (n=%llu, %llu beyond%s)",
                static_cast<unsigned long long>(m.count),
                static_cast<unsigned long long>(m.beyond),
                m.count > 0 && m.beyond < kMinBeyond ? ", TAIL < 10" : "");
  }
  std::printf("\n");
}

std::string Options(const WorkloadSpec& spec, double seconds) {
  char options[1024];
  std::snprintf(
      options, sizeof options,
      "graph=ChungLu(%u x %u, %u edges, exponents %.2f/%.2f) relabeled by "
      "seed; stream=%s; backlog=%zu; open_rate=%g/s; open_arrivals=%zu; "
      "readers=2; decompose=BiT-BU++ 1 thread; parallel_peel=4 threads; "
      "end-to-end=median CPU time of interleaved repetitions, each scaled "
      "by the reference kernel runs around it; "
      "service=default options (queue 4096, publish every 64 updates or "
      "10 ms, durable snapshot every 4096); wal_fsync=every-publish",
      spec.num_upper, spec.num_lower, spec.num_edges, spec.upper_exponent,
      spec.lower_exponent,
      spec.stream == StreamKind::kChurn ? "churn 50/50" : "fringe 50/50",
      spec.backlog_updates, spec.open_rate, OpenLoopArrivals(spec, seconds));
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir DIR] [--spans PATH]\n"
                 "workloads:");
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const std::string options = Options(spec, args.seconds);
  std::printf("workload %s, seed %llu, trace %d\noptions: %s\n", spec.name,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              options.c_str());

  Report report;
  std::unique_ptr<SpanRecorder> trace;
  if (args.trace) {
    trace = std::make_unique<SpanRecorder>(
        std::string(spec.name) + "-seed" + std::to_string(args.seed) + "-" +
        std::to_string(::getpid()));
  }
  RunWorkload(spec, args, trace.get(), report);
  if (trace != nullptr) {
    PrintTrace(*trace);
    CheckPremise(spec, *trace, report);
    if (!args.spans_path.empty() && !trace->WriteTsv(args.spans_path)) {
      std::fprintf(stderr, "could not write %s\n", args.spans_path.c_str());
    }
  }

  std::printf("metrics:\n");
  for (const auto& [name, metric] : report.metrics) PrintMetric(name, metric);
  std::printf("  %-34s %16.6f ratio    (%llu failed of %llu attempted)\n",
              "failed_share",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& what : report.mismatches) {
    std::printf("MISMATCH: %s\n", what.c_str());
  }

  const bool correct = report.mismatches.empty();
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"options\": \"" << options
       << "\", \"predicted_dominant\": \"" << spec.dominant_layer
       << "\", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    if (!std::isfinite(m.value)) continue;  // reported missing by run.py
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << '"';
    if (m.percentile) {
      json << ", \"samples\": " << m.count << ", \"beyond\": " << m.beyond;
    }
    json << '}';
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
