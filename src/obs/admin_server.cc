#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"

namespace bitruss::obs {

namespace {

using Clock = std::chrono::steady_clock;

// Stop() latency bound: the listener re-checks the stop flag at least this
// often while no connection arrives.
constexpr int kAcceptPollMs = 50;
// Per-poll I/O bound and the grace given to the response write once the
// request deadline has already been spent reading the request.
constexpr int kIoPollMs = 2000;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    default: return "Internal Server Error";
  }
}

// Milliseconds to give the next poll(): the time left to `deadline`,
// capped at kIoPollMs; <= 0 once the deadline has passed.
int PollTimeoutMs(Clock::time_point deadline) {
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                             deadline - Clock::now())
                             .count();
  return static_cast<int>(
      std::min<long long>(remaining, static_cast<long long>(kIoPollMs)));
}

bool SendAll(int fd, const std::string& data, Clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const int wait = PollTimeoutMs(deadline);
    if (wait <= 0) return false;
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, wait);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return false;
    if (ready == 0) continue;  // deadline re-checked at the loop top
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

AdminServer::AdminServer(AdminServerOptions options) : options_(options) {}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Handle(const std::string& path, Handler handler) {
  MutexLock lock(mu_);
  handlers_[path] = std::move(handler);
}

Status AdminServer::Start() {
  MutexLock lock(mu_);
  if (started_) {
    return FailedPreconditionError("AdminServer already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string message = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return InternalError(message);
  }
  if (::listen(fd, 16) < 0) {
    const std::string message = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return InternalError(message);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    const std::string message =
        std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return InternalError(message);
  }

  listen_fd_ = fd;
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  started_ = true;
  // The fd travels by value: ListenLoop never touches the guarded
  // listen_fd_ member, and Stop() joins the thread before closing it.
  listener_ = std::thread(&AdminServer::ListenLoop, this, fd);
  return OkStatus();
}

void AdminServer::Stop() {
  // Join outside the lock: the listener's ServeConnection takes mu_ to
  // look up handlers, so joining under mu_ could deadlock.
  std::thread to_join;
  {
    MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
    stopping_.store(true, std::memory_order_release);
    to_join = std::move(listener_);
  }
  if (to_join.joinable()) to_join.join();
  {
    MutexLock lock(mu_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  port_.store(0, std::memory_order_release);
}

void AdminServer::ListenLoop(int listen_fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) continue;
    ServeConnection(client);
    ::close(client);
  }
}

void AdminServer::ServeConnection(int client_fd) {
  // Read until the end of the header block (we never accept bodies),
  // bounded in BYTES (431 past max_request_bytes) and in TIME (408 once
  // the whole-request deadline expires) — a trickling or oversized client
  // gets a definite answer instead of wedging the listener.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.request_deadline_seconds));
  std::string request;
  bool oversize = false;
  bool timed_out = false;
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    if (request.size() >= options_.max_request_bytes) {
      oversize = true;
      break;
    }
    const int wait = PollTimeoutMs(deadline);
    if (wait <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{client_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return;
    if (ready == 0) continue;  // deadline re-checked at the loop top
    char buffer[1024];
    const ssize_t n = ::recv(client_fd, buffer, sizeof(buffer), 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) break;
    request.append(buffer, static_cast<std::size_t>(n));
  }

  AdminResponse response;
  const std::size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : line.find(' ', sp1 + 1);
  if (oversize) {
    response = {431, "text/plain; charset=utf-8",
                "request headers exceed " +
                    std::to_string(options_.max_request_bytes) + " bytes\n"};
  } else if (timed_out) {
    response = {408, "text/plain; charset=utf-8",
                "request not completed within the deadline\n"};
  } else if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response = {400, "text/plain; charset=utf-8", "malformed request line\n"};
  } else if (line.substr(0, sp1) != "GET") {
    response = {405, "text/plain; charset=utf-8", "only GET is supported\n"};
  } else {
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    // Copy the handler out under the lock, invoke it unlocked: handlers
    // may take their own time (snapshot formatting) and must not hold up
    // concurrent Handle() registrations.
    Handler handler;
    {
      MutexLock lock(mu_);
      const auto it = handlers_.find(path);
      if (it != handlers_.end()) handler = it->second;
    }
    if (!handler) {
      response = {404, "text/plain; charset=utf-8",
                  "no handler for " + path + "\n"};
    } else {
      response = handler();
    }
  }

  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  // The response write gets a fresh short grace even when the request
  // deadline is already spent (a 408 the client never sees is useless);
  // total connection time stays bounded by deadline + kIoPollMs per poll.
  SendAll(client_fd, out, Clock::now() + std::chrono::milliseconds(kIoPollMs));
  requests_served_.fetch_add(1, std::memory_order_acq_rel);
}

void RegisterStandardEndpoints(AdminServer* server, MetricsRegistry* registry) {
  server->Handle("/metrics", [registry] {
    return AdminResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                         ExportPrometheus(registry->Snapshot())};
  });
}

}  // namespace bitruss::obs
