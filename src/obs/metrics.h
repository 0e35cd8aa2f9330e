// Observability layer: process-wide metrics registry.
//
// The system spans five layers (counting, BE-Index, peeling, incremental
// maintenance, concurrent serving); this header is the one uniform way any
// of them answers "what is the process doing right now".  Three instrument
// kinds, all lock-free on the update path:
//
//   Counter    monotonic uint64; Inc() is one relaxed fetch_add.
//   Gauge      int64 level; Set/Add/MaxWith are single atomic ops.
//   Histogram  fixed bucket boundaries chosen at creation; Observe() is
//              one relaxed fetch_add on the bucket plus a CAS on the sum.
//
// Call sites fetch an instrument pointer ONCE (function-local static or a
// cached member) and hit it directly afterwards — the registry map lookup
// never sits on a hot path.  Naming convention: `bitruss_<layer>_<name>`,
// with `_total` for counters, `_seconds`/`_bytes` unit suffixes, e.g.
// `bitruss_serve_applied_total`, `bitruss_dynamic_repair_frontier_edges`.
//
// Scope model.  Registry instruments are process-wide aggregates (what a
// scrape wants): the registry owns every histogram and most counters and
// gauges, and call sites hold pointers to them.  A counter that an object
// must also read per instance (BitrussService's Stats() counters) is owned
// by the object and attached with `RegisterCounter` / `UnregisterCounter`:
// the snapshot then reports the SUM across the owned family counter and
// every registered instance, so the stat is kept once, not twice.  Gauge
// callbacks cover values that are cheaper to read than to maintain (queue
// depths, process RSS): they are evaluated at snapshot time and summed
// into the named family.
//
// `Snapshot()` is consistent per instrument (each value is one atomic
// load), not across instruments: a counter incremented between two loads
// can make e.g. histogram count and a parallel counter disagree by the
// in-flight updates.  The one exporter is `ExportPrometheus()` (text
// exposition, cumulative `_bucket{le=...}` semantics), served on `/metrics`.

#ifndef BITRUSS_OBS_METRICS_H_
#define BITRUSS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace bitruss::obs {

/// Monotonic counter.  Inc() is the hot-path form (relaxed); IncOrdered()
/// is an acq_rel RMW for counters that double as publication watermarks
/// (their Value() then synchronizes-with the increment, e.g. the serving
/// layer's applied-updates count that readers compare snapshots against).
class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void IncOrdered(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_acq_rel);
  }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_acquire);
  }

 private:
  // Ordering: relaxed fetch_add on the hot path (Inc); IncOrdered uses
  // acq_rel so the acquire load in Value() synchronizes-with it.
  std::atomic<std::uint64_t> value_{0};
};

/// A level that can move both ways (queue depth, bytes held).  MaxWith()
/// keeps a running maximum — the idiom for peak gauges.
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void MaxWith(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t Value() const {
    return value_.load(std::memory_order_acquire);
  }

 private:
  // Ordering: relaxed stores/RMWs on the update path (levels carry no
  // publication semantics); acquire load in Value() for cross-thread reads.
  std::atomic<std::int64_t> value_{0};
};

struct HistogramSample;

/// Fixed-bucket histogram.  `bounds` are ascending inclusive upper bounds
/// (Prometheus `le` semantics: value v lands in the first bucket with
/// v <= bound); one implicit +Inf bucket catches the rest, so there are
/// bounds.size() + 1 buckets.  Concurrent Observe() calls lose nothing:
/// every count is a fetch_add and the sum is a CAS loop, so totals are
/// exact whatever the interleaving.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  /// Point-in-time copy of this instrument as a snapshot sample (one
  /// atomic load per field — same consistency contract as
  /// MetricsRegistry::Snapshot), usable with HistogramSample::Quantile
  /// without going through a registry.
  HistogramSample Sample(std::string name = {}) const;

  const std::vector<double>& Bounds() const { return bounds_; }
  std::size_t NumBuckets() const { return bounds_.size() + 1; }
  /// Count in bucket i (i == bounds().size() is the +Inf bucket).
  std::uint64_t BucketCount(std::size_t i) const {
    return buckets_[i].load(std::memory_order_acquire);
  }
  std::uint64_t TotalCount() const {
    return count_.load(std::memory_order_acquire);
  }
  double Sum() const { return sum_.load(std::memory_order_acquire); }

 private:
  std::vector<double> bounds_;
  // Ordering: all updates relaxed (counts are independent tallies, not
  // publication flags); readers use acquire loads in the accessors.
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// `count` bounds starting at `start`, each `factor` times the previous
/// (factor > 1): the standard shape for latencies and work sizes.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       std::size_t count);

// ---------------------------------------------------------------------------
// Snapshot & registry
// ---------------------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  /// Per-bucket (non-cumulative) counts, size bounds.size() + 1; the last
  /// entry is the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t count = 0;
  double sum = 0;

  /// Bucket-interpolated quantile estimate (Prometheus histogram_quantile
  /// semantics): the target rank q*count is located in the cumulative
  /// bucket counts and the answer interpolated linearly inside that
  /// bucket, assuming observations spread uniformly across it.  The first
  /// bucket interpolates from 0 (observations are assumed non-negative);
  /// a rank landing in the +Inf bucket is clamped to the highest finite
  /// bound.  This is an ESTIMATE whose error is bounded by the bucket
  /// width at the quantile, not an exact order statistic.  q outside
  /// [0, 1] is clamped; an empty histogram returns 0.
  double Quantile(double q) const;
};

/// `after - before` per bucket (and count/sum), saturating at 0: the
/// distribution of observations recorded between the two snapshots of one
/// family.  The samples must share bucket bounds (`after` is returned
/// unchanged otherwise) — the idiom for per-phase quantiles out of
/// process-lifetime histograms.
HistogramSample SubtractHistogramSample(const HistogramSample& after,
                                        const HistogramSample& before);

/// Point-in-time copy of every family, each vector sorted by name.
struct RegistrySnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* FindCounter(const std::string& name) const;
  const GaugeSample* FindGauge(const std::string& name) const;
  const HistogramSample* FindHistogram(const std::string& name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-global registry every library call site reports into.  It
  /// additionally carries the process gauges (`bitruss_process_rss_bytes`,
  /// `bitruss_process_peak_rss_bytes`) as snapshot-time callbacks.  Tests
  /// construct their own registries for isolation.
  static MetricsRegistry& Default();

  /// Returns the owned instrument registered under `name`, creating it on
  /// first use.  The pointer is stable for the registry's lifetime — cache
  /// it at the call site.  GetHistogram's `bounds` only matter on the
  /// creating call; later calls return the existing instrument unchanged.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  /// Attaches an externally-owned counter to the named family; the
  /// snapshot sums it with the owned counter and every other registered
  /// instance.  The caller must UnregisterCounter before the counter dies;
  /// unregistration folds its final value into the family's owned
  /// counter, so registry totals cover the whole process lifetime, not
  /// just the counters currently alive.
  void RegisterCounter(const std::string& name, const Counter* counter);
  void UnregisterCounter(const std::string& name, const Counter* counter);

  /// Snapshot-time gauge: `fn` runs under the registry lock during
  /// Snapshot() (it must not call back into the registry) and its value is
  /// summed into the named gauge family.  Returns a handle for removal.
  std::uint64_t AddGaugeCallback(const std::string& name,
                                 std::function<std::int64_t()> fn);
  void RemoveGaugeCallback(std::uint64_t handle);

  RegistrySnapshot Snapshot() const;

 private:
  struct CounterFamily {
    std::unique_ptr<Counter> owned;
    std::vector<const Counter*> external;
  };
  struct GaugeCallback {
    std::uint64_t handle = 0;
    std::string name;
    std::function<std::int64_t()> fn;
  };

  mutable Mutex mu_;
  std::map<std::string, CounterFamily> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
  std::vector<GaugeCallback> callbacks_ GUARDED_BY(mu_);
  std::uint64_t next_handle_ GUARDED_BY(mu_) = 1;
};

/// Prometheus text exposition: `# TYPE` line per family, cumulative
/// `_bucket{le="..."}` rows plus `_sum`/`_count` for histograms.
std::string ExportPrometheus(const RegistrySnapshot& snapshot);

/// Appends `s` as a double-quoted JSON string (quotes included) with
/// control characters escaped; used by the `/healthz` body
/// (BitrussService::HealthJson).
void AppendJsonEscaped(const std::string& s, std::string* out);

}  // namespace bitruss::obs

#endif  // BITRUSS_OBS_METRICS_H_
