// Observability layer: structured lifecycle event log.
//
// Metrics answer "how much / how fast"; the event log answers "what
// happened, when, with what parameters" — one JSON object per line, e.g.
//
//   {"ts":1754650000.123456,"event":"publish","version":41,"covers":2624,
//    "publish_seconds":0.00031,"staleness_updates":64}
//
// The design constraint is the single-writer serving thread: emitting an
// event must NEVER block it on I/O or on a slow consumer.  Emit() formats
// the line on the calling thread (string work only), then takes a brief
// mutex to run a token-bucket rate limiter and push into a bounded queue;
// a dedicated sink thread drains the queue to the output stream.  When
// the rate limit or the queue bound is exceeded the event is DROPPED and
// counted (DroppedEvents(), also scrapeable as
// `bitruss_eventlog_dropped_total`) — loss is explicit, stalls are
// impossible.  Lifecycle events the serving layer emits: publish,
// compaction, fallback_recompute, backpressure_reject, slow_apply,
// durable_snapshot, degraded_enter.  fallback_recompute and slow_apply
// come at most once per writer batch and carry its size (batch_updates).
//
// Field values are pre-rendered by the EventField constructors (numbers
// as JSON numbers, strings escaped), so Emit's formatting cost is a few
// string appends.  Events from concurrent threads interleave whole-line
// (the queue is the serialization point); within one thread, order is
// preserved.

#ifndef BITRUSS_OBS_EVENTLOG_H_
#define BITRUSS_OBS_EVENTLOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <initializer_list>
#include <string>
#include <thread>

#include "util/sync.h"

namespace bitruss::obs {

class Counter;

/// One key/value pair of an event; the constructor renders the value to
/// its final JSON token so Emit never revisits it.
struct EventField {
  EventField(std::string k, double value);
  EventField(std::string k, std::uint64_t value);
  EventField(std::string k, std::int64_t value);
  EventField(std::string k, int value)
      : EventField(std::move(k), static_cast<std::int64_t>(value)) {}
  EventField(std::string k, const char* value);
  EventField(std::string k, const std::string& value);

  std::string key;
  std::string json_value;
};

struct EventLogOptions {
  /// Events buffered for the sink thread; Emit drops (and counts) when
  /// the queue is full rather than waiting for the sink.
  std::size_t queue_capacity = 1024;
  /// Token-bucket rate limit in events/second (0 = unlimited) with
  /// `burst` tokens of headroom; events beyond the rate are dropped and
  /// counted, which bounds both log volume and Emit's amortized cost
  /// under an event storm.
  double max_events_per_second = 2000;
  double burst = 256;
};

class EventLog {
 public:
  /// Writes to `sink` (NOT owned — stderr is a fine choice); a null sink
  /// drops everything (counted), so a disabled log needs no branching at
  /// call sites.
  explicit EventLog(std::FILE* sink, EventLogOptions options = {});
  /// Opens `path` for writing (truncates); on failure the log behaves as
  /// if constructed with a null sink.
  explicit EventLog(const std::string& path, EventLogOptions options = {});

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Equivalent to Stop().
  ~EventLog();

  /// Orderly shutdown: stops intake (later Emits drop, counted), drains
  /// everything already queued, joins the sink thread, then flushes and —
  /// for an owned file — fsyncs before closing, so every event accepted
  /// before the call survives even a crash right after it.  Idempotent
  /// and safe to race with the destructor (join_mu_ serializes them).
  void Stop();

  /// Enqueues `{"ts":...,"event":"<event>",<fields>}`; wall-clock ts with
  /// microsecond resolution.  Never blocks on I/O; thread-safe.
  void Emit(const std::string& event, std::initializer_list<EventField> fields);

  /// Blocks until everything queued before the call is written (tests and
  /// orderly shutdown; NOT for the serving thread).
  void Flush();

  std::uint64_t EmittedEvents() const {
    return emitted_.load(std::memory_order_acquire);
  }
  std::uint64_t DroppedEvents() const {
    return dropped_.load(std::memory_order_acquire);
  }

 private:
  void SinkLoop();

  // Set in the constructors before the sink thread starts, constant
  // afterwards — no guard needed (the thread creation publishes them).
  EventLogOptions options_;
  std::FILE* sink_;       // null: drop-only mode
  bool owns_sink_ = false;

  // Ordering: acq_rel increments paired with acquire loads in the
  // accessors, so a thread that observed an event's side effects also
  // observes it counted.
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  // Process-wide mirrors in MetricsRegistry::Default()
  // (`bitruss_eventlog_{emitted,dropped}_total`): registry-owned, cached
  // once in the constructor, aggregated across every EventLog instance.
  Counter* registry_emitted_;
  Counter* registry_dropped_;
  // Ordering: release-stored by Stop() after the owned sink is closed,
  // acquire-loaded by Flush/Emit so neither touches a dead FILE*.
  std::atomic<bool> closed_{false};

  Mutex mu_;
  CondVar queue_cv_;    // sink waits for work/stop
  CondVar flushed_cv_;  // Flush waits for quiescence
  std::deque<std::string> queue_ GUARDED_BY(mu_);
  double tokens_ GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point last_refill_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  bool sink_busy_ GUARDED_BY(mu_) = false;

  Mutex join_mu_;  // serializes the sink join + close across Stop races
  // Started last in the constructor (unguarded writes there are safe: the
  // object is not yet shared), joined by exactly one Stop() caller under
  // join_mu_.
  std::thread sink_thread_ GUARDED_BY(join_mu_);
};

}  // namespace bitruss::obs

#endif  // BITRUSS_OBS_EVENTLOG_H_
