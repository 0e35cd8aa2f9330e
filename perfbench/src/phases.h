// The phases of one benchmark run, in the order main() runs them.

#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/bitruss_result.h"
#include "dynamic/dynamic_graph.h"
#include "graph/bipartite_graph.h"
#include "serve/bitruss_service.h"
#include "util/random.h"
#include "workload.h"

namespace perfbench {

// -- Decompose ---------------------------------------------------------------

struct DecomposeOutcome {
  bitruss::BipartiteGraph graph;
  bitruss::BitrussResult result;  ///< BiT-BU++ at 1 thread
};

/// CSR build, Decompose (BiT-BU++, 1 thread) and DecomposeParallelPeel (4
/// threads, timed) of the start graph, once each; checks that both give
/// the same phi.  Traced runs also time butterfly counting and the
/// BE-Index build on their own.
DecomposeOutcome RunDecomposePhase(
    RunContext& ctx,
    const std::vector<std::pair<bitruss::VertexId, bitruss::VertexId>>& edges);

// -- Serving -----------------------------------------------------------------

struct ServingOutcome {
  /// Updates the service accepted, in acceptance order; the first
  /// `backlog_count` came from the backlog phase.
  std::vector<bitruss::EdgeUpdate> accepted;
  std::size_t backlog_count = 0;
  double backlog_wall_s = 0;
  double recover_s = 0;  ///< median wall time over recoveries
  bitruss::RecoveryStats recovery;  ///< of the first recovery
  /// What the service left on disk at the crash.
  std::string crashed_dir;
  /// The last snapshot before the crash, covering every accepted update.
  std::shared_ptr<const bitruss::PhiSnapshot> final_snapshot;
};

/// Service set-up, backlog, open loop with two readers, then crash
/// (Shutdown without drain), once each.  Fills `out`, whose `accepted`
/// list the caller may have reserved.
void RunServingPhase(RunContext& ctx, const bitruss::BipartiteGraph& start,
                     const std::vector<bitruss::EdgeUpdate>& stream,
                     ServingOutcome& out);

/// Pins the calling thread to the index-th CPU the process may run on
/// (`index` < 0: any of them) when there are at least four.  Threads
/// inherit their creator's CPUs, so a service's writer runs where the
/// thread that constructed it was pinned.  The open loop gives each
/// serving thread its own CPU (readers 0 and 1, generator 2, writer 3),
/// which keeps the load at one busy thread per CPU from run to run.
void PinThisThread(int index);

/// Default service options plus the WAL in every-publish fsync mode in
/// `dir`; the fallback decompose is pinned to one thread.
bitruss::BitrussServiceOptions ServiceOptions(const std::string& dir);
bool SamePhi(const bitruss::PhiSnapshot& a, const bitruss::PhiSnapshot& b);

/// Waits until `service`, started fresh, has published a snapshot covering
/// `accepted` updates, polling every millisecond (an error after 60 s).
/// It stands in for BitrussService::Drain(), which can miss its wake-up:
/// the writer publishes and notifies without holding the service's mutex,
/// so the notification can fall between Drain's check and its wait, and an
/// idle writer never notifies again, leaving Drain() blocked for good.
bitruss::Status WaitPublished(const bitruss::BitrussService& service,
                              std::uint64_t accepted);

/// Reads in one read-mix block: one PhiHistogram, four TopKPhi(8) and
/// snapshot acquisitions with 4 point Phi reads each, the same mix as the
/// open loop's readers.
inline constexpr std::uint64_t kReadBlock = 4096;
/// One read-mix block from the calling thread; returns its CPU time per
/// read in ns.  Results are folded into `sink` so no read is elided.
double ReadMixBlockCpuNs(const bitruss::BitrussService& service,
                         bitruss::Rng& rng, std::uint64_t& sink);

// -- Interleaved repetitions --------------------------------------------------

/// The end-to-end metrics: CSR build, Decompose, service set-up plus
/// backlog on a fresh service, Recover from the crashed directory,
/// read-mix blocks on a recovered service and the ReferenceKernel,
/// interleaved by RunInterleaved over kInterleavedShare of the run.  Each
/// end-to-end timing is the median CPU time of its repetitions, each scaled
/// by kReferenceKernelMs over the median of the kernel runs around it
/// (per-layer timings are wall medians); every repetition's result is
/// checked.
void RunInterleavedPhase(RunContext& ctx,
                         const std::vector<std::pair<bitruss::VertexId,
                                                     bitruss::VertexId>>& edges,
                         const std::vector<bitruss::EdgeUpdate>& stream,
                         const DecomposeOutcome& start, ServingOutcome& serving);

// -- Layer replays and correctness gate ---------------------------------------

/// Per-update wall times of the accepted sequence replayed through a
/// standalone IncrementalBitruss, for the self-time derivations.
struct DynamicReplay {
  std::vector<std::int64_t> update_ns;
};

/// Per-record persist costs of the scratch WAL replay.
struct PersistReplay {
  std::vector<std::int64_t> append_ns;  ///< Append, plus any Sync after it
  double replay_parse_s = 0;
  double snapshot_write_s = 0;
  double snapshot_load_s = 0;
  std::uint64_t records = 0;
};

/// Applies the accepted sequence to a DynamicBipartiteGraph (each edit
/// timed when traced), decomposes its Snapshot() and checks the service's
/// final phi against it slot by slot.  Returns the replayed graph.
bitruss::DynamicBipartiteGraph CheckFinalPhi(RunContext& ctx,
                                             const DecomposeOutcome& start,
                                             const ServingOutcome& serving);

/// Traced runs only: the dynamic and persist layers on their own.
DynamicReplay ReplayIncremental(RunContext& ctx,
                                const bitruss::BipartiteGraph& start,
                                const ServingOutcome& serving);
PersistReplay ReplayPersist(RunContext& ctx,
                            const bitruss::DynamicBipartiteGraph& final_graph,
                            const ServingOutcome& serving);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
