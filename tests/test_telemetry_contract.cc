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

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "differential_oracle.h"
#include "gen/dataset_suite.h"
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

TEST_F(TelemetryContract, MetricsEndpointCarriesEveryServingFamily) {
  const std::map<std::string, double> values =
      ParseExposition(Scrape("/metrics").body);
  const auto value = [&](const std::string& series) {
    const auto it = values.find(series);
    return it == values.end() ? 0.0 : it->second;
  };
  for (const char* counter : {
           "bitruss_serve_submitted_total",
           "bitruss_serve_applied_total",
           "bitruss_serve_published_snapshots_total",
           "bitruss_serve_reads_total",
           "bitruss_serve_rejected_overflow_total",
           "bitruss_serve_compactions_total",
           "bitruss_serve_publish_full_copies_total",
           "bitruss_dynamic_fallbacks_total",
           "bitruss_persist_wal_records_total",
           "bitruss_persist_snapshots_total",
           "bitruss_core_peel_rounds_total",
       }) {
    EXPECT_GT(value(counter), 0) << counter;
  }
  for (const char* histogram : {
           "bitruss_serve_staleness_updates",
           "bitruss_serve_publish_seconds",
           "bitruss_serve_apply_seconds",
           "bitruss_serve_visibility_seconds",
           "bitruss_serve_batch_updates",
           "bitruss_serve_batch_seconds",
           "bitruss_serve_read_phi_seconds",
           "bitruss_serve_read_topk_seconds",
           "bitruss_serve_read_histogram_seconds",
           "bitruss_persist_wal_sync_seconds",
       }) {
    EXPECT_GT(value(std::string(histogram) + "_count"), 0) << histogram;
  }
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

}  // namespace
}  // namespace bitruss
