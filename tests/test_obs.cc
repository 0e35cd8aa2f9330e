// Tests for the observability layer (src/obs/): lock-free instruments
// under concurrent update (exact totals from the shared thread pool, the
// configuration the TSan CI job runs), histogram `le` bucket semantics,
// registry snapshot/export golden checks, JSON string escaping, and
// external-instrument registration with absorb-on-unregister.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace bitruss::obs {
namespace {

TEST(Counter, IncAndOrderedIncAccumulate) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Inc();
  counter.Inc(41);
  counter.IncOrdered(8);
  EXPECT_EQ(counter.Value(), 50u);
}

TEST(Gauge, SetAddAndMaxWith) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.MaxWith(5);  // below current: no change
  EXPECT_EQ(gauge.Value(), 7);
  gauge.MaxWith(22);
  EXPECT_EQ(gauge.Value(), 22);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 5.0});
  ASSERT_EQ(h.NumBuckets(), 4u);
  // Prometheus `le` semantics: a value on a boundary lands in that bucket.
  h.Observe(0.5);  // le=1
  h.Observe(1.0);  // le=1 (boundary)
  h.Observe(1.5);  // le=2
  h.Observe(2.0);  // le=2 (boundary)
  h.Observe(5.0);  // le=5 (boundary)
  h.Observe(7.0);  // +Inf
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_EQ(h.TotalCount(), 6u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 7.0);
}

TEST(Histogram, UnsortedDuplicateBoundsAreNormalized) {
  Histogram h({5.0, 1.0, 5.0, 2.0});
  EXPECT_EQ(h.Bounds(), (std::vector<double>{1.0, 2.0, 5.0}));
}

// The hot-path contract: concurrent relaxed increments lose nothing.
// Four threads (the parallel execution layer's pool) hammer one counter,
// one gauge (MaxWith) and one histogram; totals must be exact.
TEST(Instruments, ConcurrentUpdatesAreExact) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  Counter counter;
  Gauge peak;
  Histogram histogram({10.0, 100.0, 1000.0});

  ThreadPool pool(kThreads);
  pool.ParallelForChunks(
      0, kThreads, kThreads,
      [&](std::uint64_t, std::uint64_t, unsigned chunk, unsigned) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          counter.Inc();
          peak.MaxWith(static_cast<std::int64_t>(chunk * kPerThread + i));
          histogram.Observe(static_cast<double>(i % 2000));
        }
      });

  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  EXPECT_EQ(peak.Value(),
            static_cast<std::int64_t>((kThreads - 1) * kPerThread +
                                      kPerThread - 1));
  EXPECT_EQ(histogram.TotalCount(), kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < histogram.NumBuckets(); ++b) {
    bucket_total += histogram.BucketCount(b);
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  // Sum is CAS-accumulated: exact for integer-valued observations.
  double expected_sum = 0;
  for (std::uint64_t i = 0; i < kPerThread; ++i) {
    expected_sum += static_cast<double>(i % 2000) * kThreads;
  }
  EXPECT_DOUBLE_EQ(histogram.Sum(), expected_sum);
}

TEST(MetricsRegistry, OwnedInstrumentPointersAreStable) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("bitruss_test_a_total");
  Counter* again = registry.GetCounter("bitruss_test_a_total");
  EXPECT_EQ(a, again);
  a->Inc(3);

  Histogram* h = registry.GetHistogram("bitruss_test_h", {1.0, 2.0});
  // Later bounds are ignored: first creation wins.
  EXPECT_EQ(registry.GetHistogram("bitruss_test_h", {9.0}), h);
  h->Observe(1.5);

  const RegistrySnapshot snapshot = registry.Snapshot();
  const CounterSample* counter = snapshot.FindCounter("bitruss_test_a_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 3u);
  const HistogramSample* histogram = snapshot.FindHistogram("bitruss_test_h");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count, 1u);
  EXPECT_EQ(histogram->bucket_counts, (std::vector<std::uint64_t>{0, 1, 0}));
}

// The scope model: externally registered per-object counters sum with
// the owned family counter, and unregistration folds their final value
// into the family so totals stay process-lifetime.
TEST(MetricsRegistry, ExternalInstrumentsSumAndAbsorbOnUnregister) {
  MetricsRegistry registry;
  registry.GetCounter("bitruss_test_served_total")->Inc(5);
  Counter instance_a;
  Counter instance_b;
  instance_a.Inc(10);
  instance_b.Inc(100);
  registry.RegisterCounter("bitruss_test_served_total", &instance_a);
  registry.RegisterCounter("bitruss_test_served_total", &instance_b);
  EXPECT_EQ(registry.Snapshot().FindCounter("bitruss_test_served_total")->value,
            115u);

  registry.UnregisterCounter("bitruss_test_served_total", &instance_a);
  EXPECT_EQ(registry.Snapshot().FindCounter("bitruss_test_served_total")->value,
            115u);  // absorbed, not lost
  // Unregistering an instrument that was never registered must not absorb.
  registry.UnregisterCounter("bitruss_test_served_total", &instance_a);
  EXPECT_EQ(registry.Snapshot().FindCounter("bitruss_test_served_total")->value,
            115u);
}

TEST(MetricsRegistry, GaugeCallbacksSumIntoFamilyAndRemove) {
  MetricsRegistry registry;
  registry.GetGauge("bitruss_test_depth")->Set(7);
  const std::uint64_t handle =
      registry.AddGaugeCallback("bitruss_test_depth", [] { return 35; });
  EXPECT_EQ(registry.Snapshot().FindGauge("bitruss_test_depth")->value, 42);
  registry.RemoveGaugeCallback(handle);
  EXPECT_EQ(registry.Snapshot().FindGauge("bitruss_test_depth")->value, 7);
}

TEST(Exporters, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("bitruss_test_runs_total")->Inc(2);
  registry.GetGauge("bitruss_test_bytes")->Set(1024);
  Histogram* h = registry.GetHistogram("bitruss_test_seconds", {0.5, 1.0});
  h->Observe(0.25);
  h->Observe(0.75);
  h->Observe(2.0);

  const std::string text = ExportPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE bitruss_test_runs_total counter\n"
                      "bitruss_test_runs_total 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE bitruss_test_bytes gauge\n"
                      "bitruss_test_bytes 1024\n"),
            std::string::npos);
  // Buckets are cumulative in the exposition format.
  EXPECT_NE(text.find("bitruss_test_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("bitruss_test_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("bitruss_test_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("bitruss_test_seconds_count 3\n"), std::string::npos);
}

// The /healthz body embeds free text (a degraded reason carries strerror
// text and the persist path) through this one escaper.
TEST(AppendJsonEscaped, QuotesBackslashAndControlBytes) {
  std::string out = "prefix:";
  AppendJsonEscaped("a\"b\\c\nd\te\x01" "f", &out);
  EXPECT_EQ(out, "prefix:\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

// Snapshot is taken under the registry lock while writers keep going;
// per-instrument values must still be internally consistent (bucket sums
// equal the count once writers finish).
TEST(MetricsRegistry, SnapshotUnderConcurrentWritesIsWellFormed) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("bitruss_test_hot_total");
  Histogram* histogram =
      registry.GetHistogram("bitruss_test_hot", {64.0, 512.0});

  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  ThreadPool pool(kThreads);
  pool.ParallelForChunks(
      0, kThreads, kThreads,
      [&](std::uint64_t, std::uint64_t, unsigned chunk, unsigned) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          counter->Inc();
          histogram->Observe(static_cast<double>(i % 1024));
          if (chunk == 0 && i % 4096 == 0) {
            // Concurrent scrapes must see sane (not torn) values.
            const RegistrySnapshot snap = registry.Snapshot();
            const CounterSample* c =
                snap.FindCounter("bitruss_test_hot_total");
            ASSERT_NE(c, nullptr);
            EXPECT_LE(c->value, kThreads * kPerThread);
          }
        }
      });

  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("bitruss_test_hot_total")->value,
            kThreads * kPerThread);
  const HistogramSample* h = snap.FindHistogram("bitruss_test_hot");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kPerThread);
  std::uint64_t total = 0;
  for (const std::uint64_t b : h->bucket_counts) total += b;
  EXPECT_EQ(total, kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Bucket-interpolated quantiles (PR 8).
// ---------------------------------------------------------------------------

TEST(HistogramSample, QuantileInterpolatesWithinBuckets) {
  Histogram h({10.0, 20.0, 40.0});
  for (int i = 0; i < 5; ++i) h.Observe(5.0);   // bucket le=10: 5
  for (int i = 0; i < 3; ++i) h.Observe(15.0);  // bucket le=20: 3
  for (int i = 0; i < 2; ++i) h.Observe(30.0);  // bucket le=40: 2
  const HistogramSample sample = h.Sample();

  // rank 5 exhausts the first bucket exactly: interpolate to its bound.
  EXPECT_DOUBLE_EQ(sample.Quantile(0.5), 10.0);
  // rank 9 is 1 observation into the (20, 40] bucket of 2: midpoint.
  EXPECT_DOUBLE_EQ(sample.Quantile(0.9), 30.0);
  // The first bucket interpolates from 0 (Prometheus convention).
  EXPECT_DOUBLE_EQ(sample.Quantile(0.25), 5.0);
  // q is clamped, not rejected.
  EXPECT_DOUBLE_EQ(sample.Quantile(-1.0), sample.Quantile(0.0));
  EXPECT_DOUBLE_EQ(sample.Quantile(2.0), sample.Quantile(1.0));
}

TEST(HistogramSample, QuantileClampsInfBucketAndHandlesEmpty) {
  Histogram h({10.0, 40.0});
  EXPECT_DOUBLE_EQ(h.Sample().Quantile(0.5), 0.0);  // empty
  h.Observe(1000.0);                                // +Inf bucket only
  // A rank landing in +Inf is clamped to the highest finite bound: the
  // estimate cannot exceed what the buckets can resolve.
  EXPECT_DOUBLE_EQ(h.Sample().Quantile(0.5), 40.0);
  EXPECT_DOUBLE_EQ(h.Sample().Quantile(1.0), 40.0);
}

TEST(HistogramSample, SubtractYieldsTheIntervalDistribution) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  const HistogramSample before = h.Sample();
  h.Observe(1.5);
  h.Observe(10.0);
  const HistogramSample delta = SubtractHistogramSample(h.Sample(), before);
  EXPECT_EQ(delta.count, 2u);
  ASSERT_EQ(delta.bucket_counts.size(), 3u);
  EXPECT_EQ(delta.bucket_counts[0], 0u);
  EXPECT_EQ(delta.bucket_counts[1], 1u);
  EXPECT_EQ(delta.bucket_counts[2], 1u);
  EXPECT_DOUBLE_EQ(delta.sum, 11.5);

  // Mismatched bounds: `after` is returned unchanged (no partial math).
  Histogram other({5.0});
  other.Observe(1.0);
  const HistogramSample unchanged =
      SubtractHistogramSample(other.Sample(), before);
  EXPECT_EQ(unchanged.count, 1u);
  EXPECT_DOUBLE_EQ(unchanged.sum, 1.0);
}

}  // namespace
}  // namespace bitruss::obs
