#include "span_trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint32_t SpanRecorder::Begin(const char* name, std::uint32_t parent) {
  const std::int64_t now = NowNs();
  bitruss::MutexLock lock(mu_);
  spans_.push_back({name, parent, now, now});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanRecorder::End(std::uint32_t id) {
  const std::int64_t now = NowNs();
  bitruss::MutexLock lock(mu_);
  spans_[id].end_ns = now;
}

std::uint32_t SpanRecorder::Add(const char* name, std::uint32_t parent,
                                std::int64_t start_ns, std::int64_t end_ns) {
  bitruss::MutexLock lock(mu_);
  spans_.push_back({name, parent, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::Reduce() const {
  bitruss::MutexLock lock(mu_);
  // Children's intervals per parent, clipped to the parent and merged, so
  // overlapping children on other threads are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans_[s.parent];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : kids) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    NameTotals& t = totals[spans_[i].name];
    const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration - covered;
  }
  return totals;
}

std::map<std::string, std::uint64_t> SpanRecorder::LayerCounts(
    const std::string& root) const {
  bitruss::MutexLock lock(mu_);
  std::map<std::string, std::uint64_t> counts;
  for (const Span& s : spans_) {
    bool inside = false;
    for (std::uint32_t p = s.parent; !inside && p != kNoParent;
         p = spans_[p].parent) {
      inside = spans_[p].name == root;
    }
    if (!inside) continue;
    const std::string name = s.name;
    ++counts[name.substr(0, name.find('.'))];
  }
  return counts;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bitruss::MutexLock lock(mu_);
  std::fprintf(f, "# run_id=%s\nid\tparent\tname\tstart_ns\tend_ns\n",
               run_id_.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%ld\t%s\t%lld\t%lld\n", i,
                 s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
