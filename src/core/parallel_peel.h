// Compatibility shim for the retired round-based parallel peel.
//
// The parallel decomposition is Decompose() with DecomposeOptions::parallel:
// support counting and BE-Index construction run on the pool, and the
// BiT-BU++ peel stays sequential.  This header survives only because the
// repository benchmark (perfbench/src/decompose_phase.cc) still calls
// DecomposeParallelPeel; the next benchmark change switches that caller to
// Decompose and deletes this file.

#ifndef BITRUSS_CORE_PARALLEL_PEEL_H_
#define BITRUSS_CORE_PARALLEL_PEEL_H_

#include "core/bitruss_result.h"
#include "core/decompose.h"
#include "graph/bipartite_graph.h"
#include "util/thread_pool.h"

namespace bitruss {

using ParallelPeelOptions = ParallelOptions;

/// BiT-BU++ via Decompose() with counting and index build on `options`.
inline BitrussResult DecomposeParallelPeel(
    const BipartiteGraph& g, const ParallelPeelOptions& options = {}) {
  DecomposeOptions decompose;
  decompose.parallel = options;
  return Decompose(g, decompose);
}

}  // namespace bitruss

#endif  // BITRUSS_CORE_PARALLEL_PEEL_H_
