// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into the library's public API, nested run -> phase -> call.  Each
// span carries a name ("<layer>.<call>"), start and end on one steady
// clock, the id of the span that caused it, and the run id.  Nothing is
// written until the run ends; Reduce() turns the spans into per-name call
// counts, total times and self times (a span's duration minus the part of
// its interval covered by its children).

#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/sync.h"

namespace perfbench {

/// Nanoseconds on the steady clock since the process's first call.
std::int64_t NowNs();

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    const char* name;  ///< string literal "<layer>.<call>"
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  struct NameTotals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanRecorder(std::string run_id) : run_id_(std::move(run_id)) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span now; End() closes it.  Safe from any thread.
  std::uint32_t Begin(const char* name, std::uint32_t parent);
  void End(std::uint32_t id);
  /// Records an already-timed call.
  std::uint32_t Add(const char* name, std::uint32_t parent,
                    std::int64_t start_ns, std::int64_t end_ns);

  /// Call counts, total and self time per span name.
  std::map<std::string, NameTotals> Reduce() const;
  /// Span counts per layer (the name up to its first '.'), counting only
  /// spans that descend from a span named `root`.
  std::map<std::string, std::uint64_t> LayerCounts(
      const std::string& root) const;
  /// A "# run_id=..." line, then one span per line: id, parent (-1 for
  /// the root), name, start_ns, end_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  const std::string run_id_;
  mutable bitruss::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// RAII span around a phase or call; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint32_t parent)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, parent)
                     : SpanRecorder::kNoParent) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
