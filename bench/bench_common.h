// Shared infrastructure for the per-figure/table benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper's Section
// VI evaluation: it builds the relevant synthetic stand-in datasets, runs
// the relevant algorithms, and prints the same rows/series the paper plots.
// Two environment variables tune the protocol without recompiling:
//
//   BITRUSS_BENCH_SCALE    multiplies dataset sizes (default 1.0)
//   BITRUSS_BENCH_TIMEOUT  per-run deadline in seconds (default 30; the
//                          scaled-down analogue of the paper's 30-hour cap;
//                          timed-out entries print INF, as in Figure 9)

#ifndef BITRUSS_BENCH_BENCH_COMMON_H_
#define BITRUSS_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/bitruss_result.h"
#include "core/decompose.h"
#include "graph/bipartite_graph.h"

namespace bitruss::bench {

/// Dataset scale from BITRUSS_BENCH_SCALE (default 1.0).
double BenchScale();

/// Per-run deadline seconds from BITRUSS_BENCH_TIMEOUT (default 30).
double BenchTimeoutSeconds();

/// Generates a suite dataset at BenchScale(), caching per process.
const BipartiteGraph& BenchDataset(const std::string& name);

/// One timed decomposition run under the bench deadline; `tau` defaults to
/// the library's, so BiT-PC rows follow it wherever it moves.
struct RunOutcome {
  BitrussResult result;
  double seconds = 0;   ///< wall-clock including counting + index + peel
  bool timed_out = false;
};
RunOutcome TimedRun(const BipartiteGraph& g, Algorithm algorithm,
                    double tau = DecomposeOptions{}.tau,
                    bool track_per_edge = false);

/// "12.345" or "INF" (Figure 9's convention for >deadline runs).
std::string FormatSeconds(const RunOutcome& outcome);

/// Prints a markdown-style table: header row, separator, then rows.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  /// Flushes the table to stdout with aligned columns.
  void Print() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Shorthand number formatting.
std::string FormatCount(std::uint64_t value);
std::string FormatDouble(double value, int precision = 3);

/// Standard bench banner naming the paper artifact being regenerated.
void PrintBanner(const std::string& artifact, const std::string& description);

}  // namespace bitruss::bench

#endif  // BITRUSS_BENCH_BENCH_COMMON_H_
