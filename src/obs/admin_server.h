// Observability layer: embedded HTTP admin endpoint.
//
// A deliberately minimal HTTP/1.0 server — one listener thread, blocking
// accept (bounded by a poll timeout so Stop() is prompt), one request per
// connection, `Connection: close` — whose only job is to make the
// in-process observability surface scrapeable while the service runs:
//
//     obs::AdminServer admin({.port = 0});           // 0 = ephemeral
//     obs::RegisterStandardEndpoints(                // /metrics
//         &admin, &obs::MetricsRegistry::Default());
//     admin.Handle("/healthz", [&] { return service.HealthJson(); ... });
//     admin.Start();
//     ... curl http://127.0.0.1:<admin.Port()>/metrics ...
//     admin.Stop();
//
// Handlers run on the listener thread, so one slow scrape delays the next
// — acceptable for an admin port (it is NOT the data plane; readers and
// the writer never touch this thread).  Handlers must therefore be
// wait-free with respect to the serving hot path: everything registered by
// RegisterStandardEndpoints only takes registry snapshots.
//
// The server binds 127.0.0.1 only: this is an operator port, not a public
// listener; anything else belongs behind a real HTTP stack.  No deps
// beyond POSIX sockets.

#ifndef BITRUSS_OBS_ADMIN_SERVER_H_
#define BITRUSS_OBS_ADMIN_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "util/status.h"
#include "util/sync.h"

namespace bitruss::obs {

class MetricsRegistry;

struct AdminServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with Port() after Start()).
  int port = 0;
  /// Total header-block byte cap; a request that exceeds it before its
  /// blank line is answered 431 without reading further (an admin scrape
  /// is one short GET — anything bigger is a mistake or abuse).
  std::size_t max_request_bytes = 8192;
  /// Whole-request wall deadline covering the header read; a client that
  /// connects and trickles (or never finishes) its request is answered
  /// 408 when this expires instead of wedging the single listener thread.
  /// The response write gets its own short I/O grace on top.
  double request_deadline_seconds = 5.0;
};

/// What a handler hands back; the server adds the status line,
/// Content-Type, Content-Length and Connection headers.
struct AdminResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class AdminServer {
 public:
  /// Produces the response for one GET request.  Runs on the listener
  /// thread; must be safe to call concurrently with the rest of the
  /// process (snapshot reads, no blocking on the serving hot path).
  using Handler = std::function<AdminResponse()>;

  explicit AdminServer(AdminServerOptions options = {});
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;
  /// Stops the server if still running.
  ~AdminServer();

  /// Registers `handler` for exact-match `path` (query strings are
  /// stripped before matching).  Thread-safe; may be called before or
  /// after Start() (the listener copies the handler under the lock per
  /// request, so registration never races a dispatch).
  void Handle(const std::string& path, Handler handler);

  /// Binds, listens, and starts the listener thread.  kInternal on any
  /// socket-layer failure (the error message carries errno); calling
  /// Start() twice returns kFailedPrecondition.
  [[nodiscard]] Status Start();

  /// Stops the listener and joins its thread; idempotent, but Start/Stop
  /// lifecycle calls must be serialized by the caller (concurrent Stop()s
  /// would race the join).  In-flight requests finish first (one request
  /// is at most one handler call).
  void Stop();

  /// The bound port (resolved ephemeral port included); 0 before Start().
  int Port() const { return port_.load(std::memory_order_acquire); }

  /// Requests answered so far (404s/405s included).
  std::uint64_t RequestsServed() const {
    return requests_served_.load(std::memory_order_acquire);
  }

 private:
  /// The listener thread's body.  Takes the listening fd BY VALUE so the
  /// loop never reads the guarded listen_fd_ member; the fd stays valid
  /// for the loop's whole life because Stop() joins before closing it.
  void ListenLoop(int listen_fd);
  void ServeConnection(int client_fd);

  AdminServerOptions options_;  // set at construction, const thereafter

  mutable Mutex mu_;
  std::map<std::string, Handler> handlers_ GUARDED_BY(mu_);
  bool started_ GUARDED_BY(mu_) = false;
  int listen_fd_ GUARDED_BY(mu_) = -1;
  // Started by Start() and moved out (then joined) by exactly one Stop()
  // caller, both under mu_; the join itself runs unlocked.
  std::thread listener_ GUARDED_BY(mu_);

  // Ordering: release-stored by Start()/Stop(), acquire-loaded by any
  // thread reading the bound port.
  std::atomic<int> port_{0};
  // Ordering: acq_rel increment per answered request, acquire load in the
  // accessor (a monotonic tally, ordered so tests see served responses).
  std::atomic<std::uint64_t> requests_served_{0};
  // Ordering: release-stored by Stop(), acquire-polled by the listener
  // between accepts — the one flag read outside mu_ on the listener's
  // hot loop.
  std::atomic<bool> stopping_{false};
};

/// Wires the standard observability endpoint onto `server` (any time —
/// registration is safe before or after Start()):
///   /metrics       Prometheus text exposition of `registry`, the one
///                  operator record of every counter, gauge and histogram
/// Service-specific liveness (`/healthz`) is the caller's to register —
/// see BitrussService::HealthJson.
void RegisterStandardEndpoints(AdminServer* server, MetricsRegistry* registry);

}  // namespace bitruss::obs

#endif  // BITRUSS_OBS_ADMIN_SERVER_H_
