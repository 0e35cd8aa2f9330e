// Workload definitions and the per-run context shared by the phases.
//
// Every workload runs the same phases, so every end-to-end metric is
// measured on every workload: the scenario (CSR build, BiT-BU++ and
// parallel peel of the start graph, service set-up, backlog, open loop,
// crash), then interleaved repetitions of the timed calls.  What differs
// is the graph shape and the update stream, which decide which layer
// dominates.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"
#include "serve/bitruss_service.h"
#include "span_trace.h"
#include "stats.h"

namespace perfbench {

enum class StreamKind {
  /// 50/50 inserts of random absent pairs and deletes of random live
  /// edges.
  kChurn,
  /// The same 50/50 mix confined to upper vertices isolated in the start
  /// graph, each holding at most one edge: no update touches a butterfly,
  /// so the serving and durability layers carry all of the cost.
  kFringe,
};

/// The premise a workload was chosen for, which its traced run confirms.
enum class Premise {
  /// Its decompose phase records only graph, butterfly and core spans.
  kDecomposeOnlyCore,
  /// Fallback recomputes take more than half of the dynamic layer's time.
  kFallbackDominates,
  /// At most 1% of updates fall back.
  kLocalRepair,
};

struct WorkloadSpec {
  const char* name;
  // Chung-Lu shape of the start graph.
  bitruss::VertexId num_upper;
  bitruss::VertexId num_lower;
  bitruss::EdgeId num_edges;
  double upper_exponent;
  double lower_exponent;
  StreamKind stream;
  /// Updates submitted in the backlog phase.
  std::size_t backlog_updates;
  /// Offered Poisson rate of the open-loop phase, updates per second.
  double open_rate;
  /// Whether set-up is the service constructor (serving workloads) or the
  /// CSR build (the decomposition workload).
  bool setup_is_service;
  /// Which layer the workload is predicted to be dominated by.
  const char* dominant_layer;
  Premise premise;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Shares of a run's --seconds: the scenario's open loop, and the
/// interleaved repetitions the end-to-end metrics come from (see
/// interleaved_phase.cc).  The rest goes to the scenario's other phases; the
/// traced run's layer timings and replays come on top.
inline constexpr double kOpenLoopShare = 0.12;
inline constexpr double kInterleavedShare = 0.73;
/// Wall-time budget of each traced-only repeated layer timing.
inline constexpr double kLayerTimingShare = 0.05;

/// Open-loop arrivals: enough for the open loop's share of `seconds` at
/// the offered rate, and never fewer than a p99 with kMinBeyond samples
/// beyond it needs.
std::size_t OpenLoopArrivals(const WorkloadSpec& spec, double seconds);

/// Seed of one input of a run ("labels/upper", "schedule", "probe/0",
/// ...), so every input derives from the run's seed alone.
std::uint64_t DeriveSeed(std::uint64_t seed, const char* what);

/// A run's start graph (side-local edge pairs) and update stream.
struct WorkloadInput {
  std::vector<std::pair<bitruss::VertexId, bitruss::VertexId>> edges;
  /// Valid against the state its own prefix reaches from `edges`.
  std::vector<bitruss::EdgeUpdate> stream;
};

/// Each workload has one logical input, like the paper's fixed datasets: a
/// Chung-Lu graph of the workload's shape and a 50/50 update stream over
/// it, both drawn from a seed fixed per workload.  The run's seed draws a
/// random relabeling of the upper and of the lower vertices, applied to
/// both.  Relabeling changes edge ids, priority tie-breaks, CSR and hash
/// layouts and the WAL bytes, but not the amount of algorithmic work, so
/// seed-to-seed spread measures the code rather than how many of a random
/// stream's updates happen to hit the graph's dense core.
WorkloadInput MakeInput(const WorkloadSpec& spec, std::uint64_t seed,
                        std::size_t stream_length);

/// One reported metric: value, unit, and for percentiles the samples that
/// back it.
struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t count = 0;   ///< samples (percentiles only)
  std::uint64_t beyond = 0;  ///< samples above the percentile
  bool percentile = false;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit, 0, 0, false};
  }
  /// Records a percentile in `unit` from samples held in `scale` units per
  /// reported unit (e.g. 1e6 for ns samples reported in ms).
  void SetQuantile(const std::string& name, Samples& samples, double q,
                   double scale, const std::string& unit) {
    const Quantile qt = samples.At(q);
    metrics[name] = Metric{qt.value / scale, unit, qt.count, qt.beyond, true};
  }
  void Mismatch(const std::string& what) {
    mismatches.push_back(what);
    ++failed;
  }
};

/// Everything a phase needs: the run's inputs, its trace, and its report.
struct RunContext {
  const WorkloadSpec& spec;
  std::uint64_t seed;
  double seconds;
  /// Null in untraced runs.
  SpanRecorder* trace;
  std::uint32_t run_span;
  /// Scratch directory inside the checkout for WAL and snapshot files.
  std::string work_dir;
  Report& report;
};

/// CPU time consumed so far by every thread of this process, in ns.  It
/// excludes time a thread waits (for a lock, a disk, or a CPU the
/// hypervisor gave to another guest), so on a shared host it moves with
/// the work the code does, where wall time moves with the neighbours.
std::int64_t ProcessCpuNs();
/// The same for the calling thread alone.
std::int64_t ThreadCpuNs();

/// Wall and process-CPU seconds of one call, and when it started.
struct CallTime {
  double wall_s = 0;
  double cpu_s = 0;
  std::int64_t start_ns = 0;  ///< NowNs() at the call
};

/// Times fn(), recorded as a span named `name` under `parent`.  The CPU
/// time is the whole process's, so work a call hands to library threads
/// counts; the benchmark's own threads are idle whenever this is used.
template <typename Fn>
CallTime TimedCall(RunContext& ctx, const char* name, std::uint32_t parent,
                   Fn&& fn) {
  const std::int64_t wall = NowNs();
  const std::int64_t cpu = ProcessCpuNs();
  {
    ScopedSpan span(ctx.trace, name, parent);
    fn();
  }
  return {static_cast<double>(NowNs() - wall) * 1e-9,
          static_cast<double>(ProcessCpuNs() - cpu) * 1e-9, wall};
}

/// Calls rep(), which returns the CallTime of its timed call, until the
/// wall times add up to about `budget_s` (at least once, at most
/// `max_reps` times); returns the medians of wall and of CPU time.  Work a
/// repetition does outside its timed call (copying inputs, checking
/// outputs) is not charged to the budget.
template <typename RepFn>
CallTime Repeat(double budget_s, int max_reps, RepFn&& rep) {
  std::vector<double> wall;
  std::vector<double> cpu;
  double spent = 0;
  while (wall.empty() ||
         (spent < budget_s && static_cast<int>(wall.size()) < max_reps)) {
    const CallTime t = rep();
    wall.push_back(t.wall_s);
    cpu.push_back(t.cpu_s);
    spent += t.wall_s;
  }
  return {Median(std::move(wall)), Median(std::move(cpu)), 0};
}

/// Repetitions of one timed call inside RunInterleaved.
struct Measurement {
  const char* name;
  /// Part of the interleaved window this measurement should get.
  double share;
  /// Performs one repetition and records its own samples.
  std::function<void()> rep;
  /// Repetitions the measurement makes at most, spread evenly over the
  /// window; the time it does not need goes to the others.
  std::size_t max_reps = SIZE_MAX;
  double spent_s = 0;  ///< wall time its repetitions took, untimed parts too
  std::size_t reps = 0;
};

/// Runs the measurements' repetitions in turn until about `budget_s` of
/// wall time is spent, each time picking the one furthest behind its
/// share among those that have made fewer than max_reps times the part of
/// the window gone by, plus one (each runs at least once).  The host the benchmark runs on has
/// slow spells lasting seconds; interleaving spreads every measurement
/// over the whole window, so all of them, the reference kernel included,
/// meet the same mix of fast and slow moments.
void RunInterleaved(double budget_s, std::vector<Measurement>& measurements);

/// A fixed piece of work that belongs to the benchmark, not the library:
/// 2^17 random reads over a 64 MiB table, each followed by a few rounds of
/// integer hashing, the mix of cache misses and arithmetic that graph code
/// has.  Its CPU time says how fast the CPU it ran on was going at that
/// moment.  (A variant that also read a 256 KiB or 4 MiB part of the table
/// tracked every workload's repetitions less well.)
class ReferenceKernel {
 public:
  ReferenceKernel();
  /// Runs the kernel once; returns its CPU seconds.
  double Run();
  std::uint64_t Sink() const { return sink_; }

 private:
  std::vector<std::uint32_t> table_;
  std::uint64_t sink_ = 0;
};

/// Median CPU time of ReferenceKernel::Run on the 4-vCPU VM the benchmark
/// was sized on (Sapphire Rapids, KVM), in a quiet period.  Each
/// end-to-end repetition is scaled by this over the median time of the
/// kernel runs around it: the timings read as CPU time on that VM, and a
/// host that slows down for a while slows the kernel runs of that while
/// with them.
inline constexpr double kReferenceKernelMs = 6.5;


/// Removes `dir` and everything in it (a flat directory), then recreates it.
void ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);
/// Copies the regular files of flat directory `from` into fresh `to`.
void CopyDir(const std::string& from, const std::string& to);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
