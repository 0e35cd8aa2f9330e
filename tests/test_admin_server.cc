// Tests for the embedded HTTP admin endpoint (obs/admin_server.h), driven
// through a real loopback socket like an operator's curl would: the
// /metrics body must be byte-identical to ExportPrometheus of the same
// registry, routing must answer 404/405/400 without wedging the listener,
// and concurrent scrapes must all be served.  The client and the JSON
// validator live in http_test_util.h.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "http_test_util.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"

namespace bitruss::obs {
namespace {

using http_test::Fetch;
using http_test::Get;
using http_test::HttpReply;
using http_test::IsValidJson;
using http_test::SendRawAndRead;

TEST(AdminServerJsonValidator, AcceptsAndRejectsTheRightThings) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("{\"a\": [1, -2.5e3, \"x\\\"y\"], \"b\": null}"));
  EXPECT_FALSE(IsValidJson("{\"a\": }"));
  EXPECT_FALSE(IsValidJson("{\"a\": 1} trailing"));
  EXPECT_FALSE(IsValidJson("[1, 2"));
}

// ---------------------------------------------------------------------------
// Server behavior.
// ---------------------------------------------------------------------------

// An isolated registry (no process gauges, no concurrent writers) makes
// the exposition deterministic: the endpoint body must be byte-identical
// to calling the exporter directly.
TEST(AdminServer, MetricsBodyMatchesExportPrometheusExactly) {
  MetricsRegistry registry;
  registry.GetCounter("bitruss_test_requests_total")->Inc(7);
  registry.GetGauge("bitruss_test_depth")->Set(-3);
  Histogram* h = registry.GetHistogram("bitruss_test_latency", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(10.0);

  AdminServer server;
  RegisterStandardEndpoints(&server, &registry);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.Port(), 0);

  const HttpReply reply = Get(server.Port(), "/metrics");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, ExportPrometheus(registry.Snapshot()));
  EXPECT_NE(reply.headers.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string length_header =
      "Content-Length: " + std::to_string(reply.body.size());
  EXPECT_NE(reply.headers.find(length_header), std::string::npos);
  server.Stop();
}

TEST(AdminServer, RoutingAnswers404And405And400) {
  MetricsRegistry registry;
  AdminServer server;
  RegisterStandardEndpoints(&server, &registry);
  ASSERT_TRUE(server.Start().ok());

  const HttpReply missing = Get(server.Port(), "/nope");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status, 404);

  const HttpReply post = Fetch(server.Port(), "POST /metrics HTTP/1.0");
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.status, 405);

  const HttpReply malformed = Fetch(server.Port(), "GARBAGE");
  ASSERT_TRUE(malformed.ok);
  EXPECT_EQ(malformed.status, 400);

  // A bad request must not take the listener down.
  const HttpReply after = Get(server.Port(), "/metrics");
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.status, 200);
  EXPECT_GE(server.RequestsServed(), 4u);
  server.Stop();
}

TEST(AdminServer, QueryStringsAreStrippedBeforeRouting) {
  MetricsRegistry registry;
  AdminServer server;
  RegisterStandardEndpoints(&server, &registry);
  ASSERT_TRUE(server.Start().ok());
  const HttpReply reply = Get(server.Port(), "/metrics?format=prometheus");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  server.Stop();
}

TEST(AdminServer, CustomHandlerAndConcurrentScrapes) {
  AdminServer server;
  server.Handle("/healthz", [] {
    return AdminResponse{200, "application/json", "{\"status\": \"ok\"}\n"};
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 8;
  std::vector<std::thread> clients;
  std::vector<int> statuses(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const HttpReply reply = Get(server.Port(), "/healthz");
      statuses[t] = reply.ok ? reply.status : -1;
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(statuses[t], 200) << t;
  EXPECT_GE(server.RequestsServed(), static_cast<std::uint64_t>(kThreads));
  server.Stop();
}

TEST(AdminServer, LifecycleIsStrictAboutStartAndIdempotentAboutStop) {
  AdminServer server;
  ASSERT_TRUE(server.Start().ok());
  const Status again = server.Start();
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_EQ(server.Port(), 0);

  // Start() after Stop() binds a fresh (possibly different) port.
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.Port(), 0);
  server.Stop();
}

// A header block that blows past max_request_bytes is answered 431 without
// reading further, and the listener survives to serve the next request.
TEST(AdminServer, OversizedHeadersAnswer431) {
  AdminServerOptions options;
  options.max_request_bytes = 256;
  AdminServer server(options);
  server.Handle("/ping", [] { return AdminResponse{200, "text/plain", "pong"}; });
  ASSERT_TRUE(server.Start().ok());

  const std::string huge = "GET /ping HTTP/1.0\r\nX-Filler: " +
                           std::string(1024, 'a');  // never terminated
  const HttpReply reply = SendRawAndRead(server.Port(), huge);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 431);
  EXPECT_NE(reply.body.find("256"), std::string::npos) << reply.body;

  const HttpReply after = Get(server.Port(), "/ping");
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.status, 200);
  server.Stop();
}

// A client that connects and stalls mid-request is answered 408 when the
// whole-request deadline expires — the single listener thread is not
// wedged, and normal requests are served afterwards.
TEST(AdminServer, StalledRequestAnswers408) {
  AdminServerOptions options;
  options.request_deadline_seconds = 0.2;
  AdminServer server(options);
  server.Handle("/ping", [] { return AdminResponse{200, "text/plain", "pong"}; });
  ASSERT_TRUE(server.Start().ok());

  // Send only a fragment, then just wait for the server's verdict.
  const HttpReply reply = SendRawAndRead(server.Port(), "GET /ping HT");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 408);

  const HttpReply after = Get(server.Port(), "/ping");
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, "pong");
  server.Stop();
}

// Registrations after Start() are safe (the listener copies the handler
// under the lock per request) and take effect immediately.
TEST(AdminServer, LateHandlerRegistrationServesImmediately) {
  AdminServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(Get(server.Port(), "/late").status, 404);
  server.Handle("/late", [] { return AdminResponse{200, "text/plain", "x"}; });
  const HttpReply reply = Get(server.Port(), "/late");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "x");
  server.Stop();
}

}  // namespace
}  // namespace bitruss::obs
