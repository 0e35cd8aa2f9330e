// Tests for the observability layer (src/obs/): lock-free instruments
// under concurrent update (exact totals from the shared thread pool, the
// configuration the TSan CI job runs), histogram `le` bucket semantics,
// registry snapshot/export golden checks, and external-instrument
// registration with absorb-on-unregister.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/eventlog.h"
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

// The scope model: externally registered per-object instruments sum with
// the owned family instrument, and unregistration folds their final value
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

  Histogram external({1.0, 2.0});
  external.Observe(0.5);
  external.Observe(9.0);
  registry.RegisterHistogram("bitruss_test_lat", &external);
  EXPECT_EQ(registry.Snapshot().FindHistogram("bitruss_test_lat")->count, 2u);
  registry.UnregisterHistogram("bitruss_test_lat", &external);
  const RegistrySnapshot after = registry.Snapshot();
  const HistogramSample* absorbed = after.FindHistogram("bitruss_test_lat");
  ASSERT_NE(absorbed, nullptr);
  EXPECT_EQ(absorbed->count, 2u);
  EXPECT_EQ(absorbed->bucket_counts, (std::vector<std::uint64_t>{1, 0, 1}));
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

TEST(Exporters, JsonShapeAndEscaping) {
  MetricsRegistry registry;
  registry.GetCounter("bitruss_test_runs_total")->Inc(7);
  Histogram* h = registry.GetHistogram("bitruss_test_seconds", {1.0});
  h->Observe(0.5);

  const std::string json = ExportJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\": {\"bitruss_test_runs_total\": 7}"),
            std::string::npos);
  EXPECT_NE(json.find("\"bitruss_test_seconds\": {\"bounds\": [1], "
                      "\"counts\": [1, 0], \"count\": 1, \"sum\": 0.5}"),
            std::string::npos);
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

// ---------------------------------------------------------------------------
// Structured event log (PR 8).
// ---------------------------------------------------------------------------

TEST(EventLog, WritesOneJsonObjectPerLine) {
  const std::string path = testing::TempDir() + "bitruss_eventlog_basic.jsonl";
  {
    EventLog log(path);
    log.Emit("publish", {{"version", std::uint64_t{41}},
                         {"publish_seconds", 0.25},
                         {"note", "quote \" and \n newline"}});
    log.Emit("compaction", {{"slots_before", 100}, {"slots_after", 90}});
    log.Flush();
    EXPECT_EQ(log.EmittedEvents(), 2u);
    EXPECT_EQ(log.DroppedEvents(), 0u);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buffer[512];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(f);
  EXPECT_NE(content.find("\"event\":\"publish\""), std::string::npos);
  EXPECT_NE(content.find("\"version\":41"), std::string::npos);
  EXPECT_NE(content.find("\"publish_seconds\":0.25"), std::string::npos);
  EXPECT_NE(content.find("\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(content.find("\"slots_after\":90"), std::string::npos);
  // Two lines, each a {...} object.
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t end = content.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(content[start], '{');
    EXPECT_EQ(content[end - 1], '}');
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

// Stop() drains everything accepted before the call, fsyncs the owned
// file, and is idempotent; Emits after Stop() drop (counted locally AND in
// the registry's bitruss_eventlog_dropped_total mirror).
TEST(EventLog, StopFlushesDrainsAndRefusesLateEmits) {
  const std::string path = testing::TempDir() + "bitruss_eventlog_stop.jsonl";
  EventLog log(path);
  constexpr int kEvents = 50;
  for (int i = 0; i < kEvents; ++i) log.Emit("publish", {{"i", i}});
  log.Stop();
  EXPECT_EQ(log.EmittedEvents(), static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(log.DroppedEvents(), 0u);

  // Every accepted event reached the file by the time Stop() returned.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::size_t lines = 0;
  char buffer[512];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    for (std::size_t j = 0; j < n; ++j) {
      if (buffer[j] == '\n') ++lines;
    }
  }
  std::fclose(f);
  EXPECT_EQ(lines, static_cast<std::size_t>(kEvents));

  const std::uint64_t registry_dropped_before =
      MetricsRegistry::Default()
          .GetCounter("bitruss_eventlog_dropped_total")
          ->Value();
  log.Emit("publish", {{"late", 1}});
  EXPECT_EQ(log.DroppedEvents(), 1u);
  EXPECT_EQ(MetricsRegistry::Default()
                .GetCounter("bitruss_eventlog_dropped_total")
                ->Value(),
            registry_dropped_before + 1);
  log.Flush();  // no-op on a closed log, must not crash
  log.Stop();   // idempotent
  // The destructor runs Stop() a third time — also a no-op.
}

// The registry mirrors aggregate across instances: emits and drops land in
// bitruss_eventlog_{emitted,dropped}_total as well as the local counters.
TEST(EventLog, RegistryMirrorsCountEmitsAndDrops) {
  auto& registry = MetricsRegistry::Default();
  const std::uint64_t emitted_before =
      registry.GetCounter("bitruss_eventlog_emitted_total")->Value();
  const std::uint64_t dropped_before =
      registry.GetCounter("bitruss_eventlog_dropped_total")->Value();
  {
    EventLog log(nullptr);  // drop-only mode
    log.Emit("publish", {{"i", 1}});
  }
  {
    const std::string path =
        testing::TempDir() + "bitruss_eventlog_mirror.jsonl";
    EventLog log(path);
    log.Emit("publish", {{"i", 2}});
    log.Flush();
  }
  EXPECT_EQ(registry.GetCounter("bitruss_eventlog_emitted_total")->Value(),
            emitted_before + 1);
  EXPECT_EQ(registry.GetCounter("bitruss_eventlog_dropped_total")->Value(),
            dropped_before + 1);
}

TEST(EventLog, NullSinkDropsEverythingAndCounts) {
  EventLog log(nullptr);
  for (int i = 0; i < 5; ++i) log.Emit("publish", {{"i", i}});
  EXPECT_EQ(log.EmittedEvents(), 0u);
  EXPECT_EQ(log.DroppedEvents(), 5u);
}

TEST(EventLog, RateLimitDropsBeyondBurstAndCounts) {
  EventLogOptions options;
  options.max_events_per_second = 1e-6;  // effectively no refill mid-test
  options.burst = 3;
  const std::string path = testing::TempDir() + "bitruss_eventlog_rate.jsonl";
  EventLog log(path, options);
  for (int i = 0; i < 10; ++i) log.Emit("publish", {{"i", i}});
  log.Flush();
  EXPECT_EQ(log.EmittedEvents(), 3u);
  EXPECT_EQ(log.DroppedEvents(), 7u);
}

TEST(EventLog, ConcurrentEmittersNeverTearLines) {
  constexpr unsigned kThreads = 4;
  constexpr int kPerThread = 500;
  const std::string path =
      testing::TempDir() + "bitruss_eventlog_concurrent.jsonl";
  {
    EventLogOptions options;
    options.max_events_per_second = 0;  // unlimited: only the queue bounds
    options.queue_capacity = 16384;
    EventLog log(path, options);
    ThreadPool pool(kThreads);
    pool.ParallelForChunks(
        0, kThreads, kThreads,
        [&](std::uint64_t, std::uint64_t, unsigned chunk, unsigned) {
          for (int i = 0; i < kPerThread; ++i) {
            log.Emit("slow_apply", {{"thread", static_cast<int>(chunk)},
                                    {"i", i},
                                    {"seconds", 0.001}});
          }
        });
    log.Flush();
    EXPECT_EQ(log.EmittedEvents() + log.DroppedEvents(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(log.DroppedEvents(), 0u);  // capacity exceeds the total
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(f);
  // Whole-line interleaving: every line is a complete object.
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t end = content.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(content.compare(start, 6, "{\"ts\":"), 0)
        << content.substr(start, 20);
    EXPECT_EQ(content[end - 1], '}');
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace bitruss::obs
