#include <memory>

#include "butterfly/butterfly_counting.h"
#include "core/be_index_builder.h"
#include "core/decompose.h"
#include "core/parallel_peel.h"
#include "graph/vertex_priority.h"
#include "phases.h"

namespace perfbench {

using bitruss::BipartiteGraph;
using bitruss::BitrussResult;

namespace {

constexpr int kMaxReps = 1001;
constexpr unsigned kParallelThreads = 4;

}  // namespace

DecomposeOutcome RunDecomposePhase(
    RunContext& ctx,
    const std::vector<std::pair<bitruss::VertexId, bitruss::VertexId>>& edges) {
  ScopedSpan phase(ctx.trace, "phase.decompose", ctx.run_span);
  DecomposeOutcome out;
  Report& report = ctx.report;

  {
    auto copy = edges;  // the constructor consumes its input
    ++report.attempted;
    ScopedSpan span(ctx.trace, "graph.BipartiteGraph", phase.id());
    out.graph = BipartiteGraph(ctx.spec.num_upper, ctx.spec.num_lower,
                               std::move(copy));
  }

  bitruss::DecomposeOptions options;  // BiT-BU++
  options.parallel.num_threads = 1;
  {
    ++report.attempted;
    ScopedSpan span(ctx.trace, "core.Decompose", phase.id());
    out.result = bitruss::Decompose(out.graph, options);
  }
  report.Set("butterfly.total",
             static_cast<double>(out.result.total_butterflies), "count");
  report.Set("core.support_updates",
             static_cast<double>(out.result.counters.support_updates),
             "count");

  bitruss::ParallelPeelOptions par;
  par.num_threads = kParallelThreads;
  BitrussResult parallel;
  ++report.attempted;
  const CallTime pp = TimedCall(ctx, "core.DecomposeParallelPeel", phase.id(),
                                [&] {
                                  parallel = bitruss::DecomposeParallelPeel(
                                      out.graph, par);
                                });
  report.Set("decompose_par_s", pp.wall_s, "s");
  report.Set("decompose_par_cpu_s", pp.cpu_s, "s");
  if (parallel.phi != out.result.phi) {
    report.Mismatch("DecomposeParallelPeel phi differs from BiT-BU++ phi");
  }

  if (ctx.trace != nullptr) {
    const double budget_s = kLayerTimingShare * ctx.seconds;
    const CallTime count = Repeat(budget_s, kMaxReps, [&] {
      return TimedCall(ctx, "butterfly.CountEdgeSupports", phase.id(), [&] {
        (void)bitruss::CountEdgeSupports(out.graph);
      });
    });
    std::unique_ptr<bitruss::PriorityAdjacency> adj;
    {
      ScopedSpan span(ctx.trace, "graph.PriorityAdjacency", phase.id());
      adj = std::make_unique<bitruss::PriorityAdjacency>(
          out.graph, bitruss::VertexPriority::Compute(out.graph));
    }
    std::uint64_t index_bytes = 0;
    const CallTime build = Repeat(budget_s, kMaxReps, [&] {
      return TimedCall(ctx, "core.BEIndexBuilder::Build", phase.id(), [&] {
        index_bytes =
            bitruss::BEIndexBuilder::Build(out.graph, *adj).MemoryBytes();
      });
    });
    report.Set("butterfly.count_s", count.wall_s, "s");
    report.Set("core.index_build_s", build.wall_s, "s");
    report.Set("core.index_bytes", static_cast<double>(index_bytes), "B");
  }
  return out;
}

}  // namespace perfbench
