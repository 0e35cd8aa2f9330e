// The serving stack's telemetry contract, pinned over real loopback HTTP:
// the /metrics families and /healthz that dashboards and operators read.
// Every lifecycle fact (publish, compaction, fallback recompute,
// backpressure, slow batch, durable snapshot, degraded mode) is a registry
// family; the degraded gauge is pinned by test_persist's degraded-mode
// case.  One fixture drives a durable BitrussService through every
// lifecycle path deterministically — a paused overfill (backpressure),
// cascade_budget = 0 (every non-trivial batch falls back to a whole-graph
// recompute), slot compaction, durable snapshots, reads through the timed
// wrappers — then Drain()s; each test reads one surface of the result.
// The ServingFamilies cases run services of their own: the families are
// process-wide, so they pin what several services add up to.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "differential_oracle.h"
#include "gen/dataset_suite.h"
#include "gen/random_bipartite.h"
#include "http_test_util.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "serve/bitruss_service.h"

namespace bitruss {
namespace {

using http_test::Get;
using http_test::HttpReply;
using http_test::IsValidJson;
using differential::TempDir;

constexpr std::size_t kQueueCapacity = 64;
constexpr int kUpdates = 320;
constexpr int kRejectedSubmits = 3;

// Sample lines of a Prometheus text exposition, keyed by series ("name" or
// "name_count", "name_bucket{le=...}"); comment lines are skipped.
std::map<std::string, double> ParseExposition(const std::string& body) {
  std::map<std::string, double> values;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    values[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return values;
}

// The `le` bounds of `family`'s buckets on a Prometheus text exposition,
// in exposition order ("+Inf" last).
std::vector<std::string> BucketBounds(const std::string& body,
                                      const std::string& family) {
  std::vector<std::string> bounds;
  const std::string prefix = family + "_bucket{le=\"";
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t quote = line.find('"', prefix.size());
    bounds.push_back(line.substr(prefix.size(), quote - prefix.size()));
  }
  return bounds;
}

// Family name -> type of every `# TYPE` line whose family starts with one
// of `prefixes`.
std::map<std::string, std::string> ExportedFamilies(
    const std::string& body, const std::vector<std::string>& prefixes) {
  std::map<std::string, std::string> families;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string hash, keyword, name, type;
    if (!(words >> hash >> keyword >> name >> type) || hash != "#" ||
        keyword != "TYPE") {
      continue;
    }
    for (const std::string& prefix : prefixes) {
      if (name.compare(0, prefix.size(), prefix) == 0) families[name] = type;
    }
  }
  return families;
}

class TelemetryContract : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = MakeDataset("Github", 0.05);
    BitrussServiceOptions options;
    options.queue_capacity = kQueueCapacity;
    options.publish_every_updates = 16;
    options.compact_every_updates = 64;
    options.incremental.cascade_budget = 0;
    options.persist.dir = persist_dir_.path;
    options.persist.snapshot_every_updates = 128;
    service_ = std::make_unique<BitrussService>(seed_, options);

    obs::RegisterStandardEndpoints(&admin_, &obs::MetricsRegistry::Default());
    admin_.Handle("/healthz", [this] {
      return obs::AdminResponse{200, "application/json",
                                service_->HealthJson()};
    });
    ASSERT_TRUE(admin_.Start().ok());

    const std::vector<EdgeUpdate> ops =
        differential::MakeStream(seed_, kUpdates, 0x7e1e);
    // Paused overfill: the queue reaches capacity, then bounces.
    service_->Pause();
    for (std::size_t i = 0; i < kQueueCapacity; ++i) {
      ASSERT_TRUE(service_->Submit(ops[i]).ok()) << i;
    }
    for (int r = 0; r < kRejectedSubmits; ++r) {
      ASSERT_EQ(service_->Submit(ops[kQueueCapacity]).code(),
                StatusCode::kResourceExhausted);
    }
    service_->Resume();
    ASSERT_TRUE(service_->Drain().ok());
    // The rest in queue-sized chunks, draining between, so nothing else
    // bounces.
    for (std::size_t next = kQueueCapacity; next < ops.size();) {
      for (std::size_t i = 0; i < kQueueCapacity && next < ops.size(); ++i) {
        ASSERT_TRUE(service_->Submit(ops[next++]).ok());
      }
      ASSERT_TRUE(service_->Drain().ok());
    }
    for (EdgeId slot = 0; slot < 64; ++slot) {
      (void)service_->Phi(slot);
      (void)service_->SupportOf(slot);
    }
    EXPECT_FALSE(service_->TopKPhi(8).empty());
    EXPECT_FALSE(service_->PhiHistogram().empty());
  }

  HttpReply Scrape(const std::string& path) {
    HttpReply reply = Get(admin_.Port(), path);
    EXPECT_TRUE(reply.ok) << path;
    EXPECT_EQ(reply.status, 200) << path;
    return reply;
  }

  // Members are destroyed in reverse order: the admin server stops before
  // the service its /healthz handler reads.
  TempDir persist_dir_;
  BipartiteGraph seed_;
  std::unique_ptr<BitrussService> service_;
  obs::AdminServer admin_;
};

// A histogram family's bucket layout as /metrics prints it.
struct BucketLayout {
  const char* family;
  const char* first_le;
  const char* last_le;  ///< the largest finite bound
  std::size_t finite_bounds;
};

TEST_F(TelemetryContract, MetricsEndpointCarriesEveryServingFamily) {
  const std::string body = Scrape("/metrics").body;
  const std::map<std::string, double> values = ParseExposition(body);
  const auto value = [&](const std::string& series) {
    const auto it = values.find(series);
    return it == values.end() ? 0.0 : it->second;
  };
  const BucketLayout layouts[] = {
      {"bitruss_serve_publish_seconds", "1e-06", "0.524288", 20},
      {"bitruss_serve_staleness_updates", "1", "2048", 12},
      {"bitruss_serve_apply_seconds", "1e-06", "67.1089", 27},
      {"bitruss_serve_visibility_seconds", "1e-05", "83.8861", 24},
      {"bitruss_serve_batch_updates", "1", "8192", 14},
      {"bitruss_serve_batch_seconds", "1e-06", "67.1089", 27},
      {"bitruss_serve_read_phi_seconds", "1e-07", "0.0131072", 18},
      {"bitruss_serve_read_topk_seconds", "1e-07", "0.0131072", 18},
      {"bitruss_serve_read_histogram_seconds", "1e-07", "0.0131072", 18},
      {"bitruss_persist_wal_sync_seconds", "1e-06", "8.38861", 24},
  };
  // Every serve/persist family a durable service exports, and no other.
  std::map<std::string, std::string> expected = {
      {"bitruss_serve_submitted_total", "counter"},
      {"bitruss_serve_applied_total", "counter"},
      {"bitruss_serve_apply_failures_total", "counter"},
      {"bitruss_serve_rejected_overflow_total", "counter"},
      {"bitruss_serve_published_snapshots_total", "counter"},
      {"bitruss_serve_compactions_total", "counter"},
      {"bitruss_serve_publish_full_copies_total", "counter"},
      {"bitruss_serve_reads_total", "counter"},
      {"bitruss_persist_wal_records_total", "counter"},
      {"bitruss_persist_wal_bytes_total", "counter"},
      {"bitruss_persist_failures_total", "counter"},
      {"bitruss_persist_snapshots_total", "counter"},
      {"bitruss_persist_snapshot_failures_total", "counter"},
      {"bitruss_persist_wal_truncated_segments_total", "counter"},
      {"bitruss_serve_queue_depth", "gauge"},
      {"bitruss_serve_queue_depth_peak", "gauge"},
      {"bitruss_persist_degraded", "gauge"},
      {"bitruss_persist_wal_fsyncs", "gauge"},
  };
  for (const BucketLayout& layout : layouts) {
    expected[layout.family] = "histogram";
  }
  EXPECT_EQ(ExportedFamilies(body, {"bitruss_serve_", "bitruss_persist_"}),
            expected);

  // The failure counters and the instantaneous gauges need only exist
  // (above); every other family moved.
  for (const char* series : {
           "bitruss_serve_submitted_total",
           "bitruss_serve_applied_total",
           "bitruss_serve_published_snapshots_total",
           "bitruss_serve_reads_total",
           "bitruss_serve_rejected_overflow_total",
           "bitruss_serve_compactions_total",
           "bitruss_serve_publish_full_copies_total",
           "bitruss_dynamic_fallbacks_total",
           "bitruss_persist_wal_records_total",
           "bitruss_persist_wal_bytes_total",
           "bitruss_persist_snapshots_total",
           "bitruss_persist_wal_truncated_segments_total",
           "bitruss_persist_wal_fsyncs",
           "bitruss_core_peel_rounds_total",
       }) {
    EXPECT_GT(value(series), 0) << series;
  }
  for (const BucketLayout& layout : layouts) {
    const std::string family = layout.family;
    EXPECT_GT(value(family + "_count"), 0) << family;
    const std::vector<std::string> bounds = BucketBounds(body, family);
    ASSERT_EQ(bounds.size(), layout.finite_bounds + 1) << family;
    EXPECT_EQ(bounds.front(), layout.first_le) << family;
    EXPECT_EQ(bounds[layout.finite_bounds - 1], layout.last_le) << family;
    EXPECT_EQ(bounds.back(), "+Inf") << family;
  }
  EXPECT_EQ(value("bitruss_persist_wal_bytes_total"),
            value("bitruss_persist_wal_records_total") *
                static_cast<double>(persist::kWalRecordBytes));
  // A full copy is one way to publish (the fallbacks force it here), the
  // patched recycled buffer the other.
  EXPECT_LE(value("bitruss_serve_publish_full_copies_total"),
            value("bitruss_serve_published_snapshots_total"));
  // The publish histogram times the snapshot build alone, the WAL sync
  // its own family: one observation each per publication.
  EXPECT_EQ(value("bitruss_serve_publish_seconds_count"),
            value("bitruss_serve_published_snapshots_total"));
  EXPECT_EQ(value("bitruss_persist_wal_sync_seconds_count"),
            value("bitruss_serve_published_snapshots_total"));
  EXPECT_GE(value("bitruss_serve_queue_depth_peak"),
            static_cast<double>(kQueueCapacity));
}

// The layers under the service report into families of their own: the
// fixture's updates, its fallback recomputes (cascade_budget = 0) and the
// edits deferred behind them drive every one.
TEST_F(TelemetryContract, MetricsEndpointCarriesTheLayerFamiliesItDrives) {
  const std::map<std::string, double> values =
      ParseExposition(Scrape("/metrics").body);
  const auto value = [&](const std::string& series) {
    const auto it = values.find(series);
    return it == values.end() ? 0.0 : it->second;
  };
  for (const char* series : {
           "bitruss_dynamic_inserts_total",
           "bitruss_dynamic_deletes_total",
           "bitruss_dynamic_local_repairs_total",
           "bitruss_dynamic_deferred_edits_total",
           "bitruss_dynamic_phi_changes_total",
           "bitruss_core_decompose_runs_total",
           "bitruss_beindex_last_build_bytes",
           "bitruss_process_rss_bytes",
       }) {
    EXPECT_GT(value(series), 0) << series;
  }
  for (const char* histogram : {"bitruss_dynamic_repair_butterflies",
                                "bitruss_dynamic_repair_frontier_edges"}) {
    EXPECT_GT(value(std::string(histogram) + "_count"), 0) << histogram;
  }
  // Every fallback observes the butterflies enumerated before its bail-out.
  const std::string bailouts =
      std::string("bitruss_dynamic_bailout_butterflies") + "_count";
  EXPECT_GT(value(bailouts), 0);
  EXPECT_EQ(value(bailouts), value("bitruss_dynamic_fallbacks_total"));
  EXPECT_EQ(value("bitruss_dynamic_inserts_total") +
                value("bitruss_dynamic_deletes_total"),
            value("bitruss_serve_applied_total") -
                value("bitruss_serve_apply_failures_total"));
  EXPECT_GE(value("bitruss_process_peak_rss_bytes"),
            value("bitruss_process_rss_bytes"));
}

TEST_F(TelemetryContract, HealthzIsOkJsonWithQueueCapacity) {
  const HttpReply reply = Scrape("/healthz");
  EXPECT_TRUE(IsValidJson(reply.body)) << reply.body;
  EXPECT_NE(reply.body.find("\"status\":\"ok\""), std::string::npos)
      << reply.body;
  EXPECT_NE(reply.body.find("\"queue_capacity\":" +
                            std::to_string(kQueueCapacity)),
            std::string::npos)
      << reply.body;
}

// A fallback recompute on a small graph takes microseconds to a few
// milliseconds; the layouts must resolve it and still reach 10 s.
TEST_F(TelemetryContract, RecomputeSecondsBucketsSpanTenMicrosToTenSeconds) {
  const obs::RegistrySnapshot snapshot =
      obs::MetricsRegistry::Default().Snapshot();
  for (const char* name : {"bitruss_butterfly_count_seconds",
                           "bitruss_beindex_build_seconds",
                           "bitruss_core_counting_seconds",
                           "bitruss_core_peeling_seconds"}) {
    const obs::HistogramSample* family = snapshot.FindHistogram(name);
    ASSERT_NE(family, nullptr) << name;
    ASSERT_FALSE(family->bounds.empty()) << name;
    EXPECT_GT(family->count, 0u) << name;
    EXPECT_DOUBLE_EQ(family->bounds.front(), 1e-5) << name;
    EXPECT_GE(family->bounds.back(), 10.0) << name;
  }
}

// Quantile() clamps a rank in the +Inf bucket to the top finite bound, so a
// p99 equal to that bound means the layout is too narrow for the data.
TEST_F(TelemetryContract, NoNonEmptyHistogramP99IsClampedToItsTopBound) {
  const obs::RegistrySnapshot snapshot =
      obs::MetricsRegistry::Default().Snapshot();
  ASSERT_FALSE(snapshot.histograms.empty());
  for (const char* name :
       {"bitruss_serve_publish_seconds", "bitruss_persist_wal_sync_seconds"}) {
    const obs::HistogramSample* family = snapshot.FindHistogram(name);
    ASSERT_NE(family, nullptr) << name;
    EXPECT_GT(family->count, 0u) << name;
  }
  for (const obs::HistogramSample& family : snapshot.histograms) {
    if (family.count == 0 || family.bounds.empty()) continue;
    EXPECT_NE(family.Quantile(0.99), family.bounds.back()) << family.name;
  }
}

std::int64_t QueueDepthPeak() {
  const obs::RegistrySnapshot snapshot =
      obs::MetricsRegistry::Default().Snapshot();
  const obs::GaugeSample* peak =
      snapshot.FindGauge("bitruss_serve_queue_depth_peak");
  return peak == nullptr ? 0 : peak->value;
}

std::uint64_t HistogramCount(const char* family) {
  const obs::RegistrySnapshot snapshot =
      obs::MetricsRegistry::Default().Snapshot();
  const obs::HistogramSample* sample = snapshot.FindHistogram(family);
  return sample == nullptr ? 0 : sample->count;
}

BipartiteGraph SmallSeed() { return GenerateUniformBipartite(12, 10, 40, 5); }

// A service whose paused writer holds `queued` updates in a queue of
// exactly that capacity.
std::unique_ptr<BitrussService> ServiceHolding(const BipartiteGraph& seed,
                                               std::int64_t queued) {
  BitrussServiceOptions options;
  options.queue_capacity = static_cast<std::size_t>(queued);
  auto service = std::make_unique<BitrussService>(seed, options);
  service->Pause();
  for (const EdgeUpdate& op :
       differential::MakeStream(seed, static_cast<int>(queued), 0x9eaf)) {
    EXPECT_TRUE(service->Submit(op).ok());
  }
  return service;
}

// The peak is the process high-water mark: a dead service's peak is not
// added to a live one's.  Depths are taken above the peak read first, so
// the case holds after other cases in the same process too.
TEST(ServingFamilies, QueueDepthPeakIsTheHighWaterMarkAcrossServices) {
  const BipartiteGraph seed = SmallSeed();
  const std::int64_t deepest = QueueDepthPeak() + 3;
  {
    const std::unique_ptr<BitrussService> first =
        ServiceHolding(seed, deepest);
    first->Resume();
    ASSERT_TRUE(first->Drain().ok());
  }
  const std::unique_ptr<BitrussService> second = ServiceHolding(seed, 2);
  EXPECT_EQ(QueueDepthPeak(), deepest);
  second->Resume();
}

TEST(ServingFamilies, QueueDepthPeakOfLiveServicesIsTheLargerNotTheSum) {
  const BipartiteGraph seed = SmallSeed();
  const std::int64_t before = QueueDepthPeak();
  const std::unique_ptr<BitrussService> deeper =
      ServiceHolding(seed, before + 4);
  const std::unique_ptr<BitrussService> shallower =
      ServiceHolding(seed, before + 2);
  EXPECT_EQ(QueueDepthPeak(), before + 4);
  deeper->Resume();
  shallower->Resume();
}

// Two services report into one batch and one visibility family at once,
// and what they reported stays after both are gone.
TEST(ServingFamilies, BatchAndVisibilityCountsCoverEveryServiceAndOutliveIt) {
  const BipartiteGraph seed = SmallSeed();
  const std::uint64_t batches_before =
      HistogramCount("bitruss_serve_batch_updates");
  const std::uint64_t visible_before =
      HistogramCount("bitruss_serve_visibility_seconds");
  // With neither a count nor a time trigger, the resumed writer takes the
  // whole queue as one batch.
  BitrussServiceOptions options;
  options.publish_every_updates = 0;
  options.publish_interval_ms = 0;
  auto first = std::make_unique<BitrussService>(seed, options);
  auto second = std::make_unique<BitrussService>(seed, options);
  const auto feed_one_batch = [](BitrussService& service,
                                 const std::vector<EdgeUpdate>& ops) {
    service.Pause();
    for (const EdgeUpdate& op : ops) ASSERT_TRUE(service.Submit(op).ok());
    service.Resume();
    ASSERT_TRUE(service.Drain().ok());
  };
  // Batches of 5 and 3 into the first service, 7 into the second.
  const std::vector<EdgeUpdate> ops = differential::MakeStream(seed, 8, 0xba7);
  feed_one_batch(*first, {ops.begin(), ops.begin() + 5});
  feed_one_batch(*first, {ops.begin() + 5, ops.end()});
  feed_one_batch(*second, differential::MakeStream(seed, 7, 0xba8));
  EXPECT_EQ(HistogramCount("bitruss_serve_batch_updates") - batches_before,
            3u);
  EXPECT_EQ(HistogramCount("bitruss_serve_visibility_seconds") -
                visible_before,
            15u);
  first.reset();
  second.reset();
  EXPECT_EQ(HistogramCount("bitruss_serve_batch_updates") - batches_before,
            3u);
  EXPECT_EQ(HistogramCount("bitruss_serve_visibility_seconds") -
                visible_before,
            15u);
}

}  // namespace
}  // namespace bitruss
