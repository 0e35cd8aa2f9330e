// Wall-clock timing helpers shared by the library, tests and benches.

#ifndef BITRUSS_UTIL_TIMER_H_
#define BITRUSS_UTIL_TIMER_H_

#include <chrono>

namespace bitruss {

/// Monotonic stopwatch started at construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A point in time after which long-running work should abort.  The
/// default-constructed deadline never expires; `Deadline::After(s)` expires
/// `s` seconds from now.  Decomposition code polls `Expired()` at coarse
/// granularity, so expiry is detected within a bounded amount of extra work.
class Deadline {
 public:
  Deadline() = default;

  static Deadline After(double seconds) {
    Deadline d;
    d.finite_ = true;
    d.when_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    return d;
  }

  bool Expired() const { return finite_ && Clock::now() >= when_; }

 private:
  using Clock = std::chrono::steady_clock;
  bool finite_ = false;
  Clock::time_point when_{};
};

}  // namespace bitruss

#endif  // BITRUSS_UTIL_TIMER_H_
