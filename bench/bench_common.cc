#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "gen/dataset_suite.h"
#include "util/sync.h"
#include "util/timer.h"

namespace bitruss::bench {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const double parsed = std::atof(value);
  return parsed > 0 ? parsed : fallback;
}

}  // namespace

double BenchScale() {
  static const double scale = EnvDouble("BITRUSS_BENCH_SCALE", 1.0);
  return scale;
}

double BenchTimeoutSeconds() {
  static const double timeout = EnvDouble("BITRUSS_BENCH_TIMEOUT", 30.0);
  return timeout;
}

const BipartiteGraph& BenchDataset(const std::string& name) {
  // Guarded so multi-threaded benches (and parallel smoke tests) can't race
  // the lookup/emplace; std::map nodes are stable, so the returned
  // reference stays valid while other threads insert.
  static Mutex mu;
  static std::map<std::string, BipartiteGraph> cache;
  MutexLock lock(mu);
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, MakeDataset(name, BenchScale())).first;
  }
  return it->second;
}

RunOutcome TimedRun(const BipartiteGraph& g, Algorithm algorithm, double tau,
                    bool track_per_edge) {
  DecomposeOptions options;
  options.algorithm = algorithm;
  options.tau = tau;
  options.deadline = Deadline::After(BenchTimeoutSeconds());
  options.track_per_edge_updates = track_per_edge;

  RunOutcome outcome;
  Timer timer;
  outcome.result = Decompose(g, options);
  outcome.seconds = timer.Seconds();
  outcome.timed_out = outcome.result.timed_out;
  return outcome;
}

std::string FormatSeconds(const RunOutcome& outcome) {
  if (outcome.timed_out) return "INF";
  return FormatDouble(outcome.seconds);
}

TablePrinter::TablePrinter(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print() const {
  if (rows_.empty()) return;
  std::vector<std::size_t> widths(rows_[0].size(), 0);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(rows_[0]);
  std::printf("|");
  for (const std::size_t w : widths) {
    std::printf("%s|", std::string(w + 2, '-').c_str());
  }
  std::printf("\n");
  for (std::size_t r = 1; r < rows_.size(); ++r) print_row(rows_[r]);
}

std::string FormatCount(std::uint64_t value) { return std::to_string(value); }

std::string FormatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

void PrintBanner(const std::string& artifact, const std::string& description) {
  std::printf("==================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), description.c_str());
  std::printf("scale=%.3g, per-run timeout=%.0fs (paper: 30h cap)\n",
              BenchScale(), BenchTimeoutSeconds());
  std::printf("==================================================\n");
}

}  // namespace bitruss::bench
