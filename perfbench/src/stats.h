// Exact order statistics, seeded Poisson arrival schedules, open-loop
// lateness accounting and submit-to-visible reduction.
//
// Percentiles here are computed from every raw sample (nearest-rank), never
// from histogram buckets.  A percentile is only "supported" when at least
// kMinBeyond samples rank above it; the benchmark prints each percentile
// with its sample count and tail size and refuses an end-to-end percentile
// that lacks the tail.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/random.h"

namespace perfbench {

inline constexpr std::uint64_t kMinBeyond = 10;

/// One nearest-rank percentile with the sample counts that back it.
struct Quantile {
  double value = 0;
  std::uint64_t count = 0;   ///< samples in the set
  std::uint64_t beyond = 0;  ///< samples ranked strictly above `value`
  bool Supported() const { return count > 0 && beyond >= kMinBeyond; }
};

/// Raw non-negative integer samples (nanoseconds or plain counts).  Values
/// below kDense are tallied per value in a dense array and larger values
/// are kept verbatim, so every quantile is exact at the samples' own
/// resolution while millions of sub-4-microsecond reads stay cheap to hold
/// (16 KiB per set, so the benchmark's own storage stays small next to the
/// library's in peak_rss_mb).
class Samples {
 public:
  static constexpr std::uint64_t kDense = 1u << 12;

  void Add(std::uint64_t v) {
    ++count_;
    sum_ += v;
    if (v < kDense) {
      if (dense_.empty()) dense_.assign(kDense, 0);
      ++dense_[v];
    } else {
      sparse_.push_back(v);
      sorted_ = false;
    }
  }

  void Merge(const Samples& other) {
    if (!other.dense_.empty()) {
      if (dense_.empty()) dense_.assign(kDense, 0);
      for (std::uint64_t v = 0; v < kDense; ++v) dense_[v] += other.dense_[v];
    }
    sparse_.insert(sparse_.end(), other.sparse_.begin(), other.sparse_.end());
    sorted_ = false;
    count_ += other.count_;
    sum_ += other.sum_;
  }

  std::uint64_t Count() const { return count_; }
  std::uint64_t Sum() const { return sum_; }

  /// Nearest-rank q-quantile, q in [0, 1]: the sample at 1-based rank
  /// ceil(q * n), computed in integer arithmetic on q in 1e-4 steps so
  /// p99 of 1000 samples is rank 990 with exactly 10 beyond.
  Quantile At(double q) {
    Quantile out;
    out.count = count_;
    if (count_ == 0) return out;
    const auto permyriad = static_cast<std::uint64_t>(std::llround(
        std::clamp(q, 0.0, 1.0) * 10000.0));
    std::uint64_t rank = (permyriad * count_ + 9999) / 10000;
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    out.beyond = count_ - rank;
    std::uint64_t seen = 0;
    if (!dense_.empty()) {
      for (std::uint64_t v = 0; v < kDense; ++v) {
        seen += dense_[v];
        if (seen >= rank) {
          out.value = static_cast<double>(v);
          return out;
        }
      }
    }
    if (!sorted_) {
      std::sort(sparse_.begin(), sparse_.end());
      sorted_ = true;
    }
    out.value = static_cast<double>(sparse_[rank - seen - 1]);
    return out;
  }

 private:
  std::vector<std::uint32_t> dense_;
  std::vector<std::uint64_t> sparse_;
  bool sorted_ = true;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Median of `values` (the mean of the middle two for an even count); 0
/// when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// Send offsets (ns from the open loop's start) of `count` Poisson arrivals
/// at `rate_per_s`: exponential gaps drawn from the deterministic splitmix
/// stream, so a seed always yields the same schedule.
inline std::vector<std::int64_t> PoissonSchedule(std::uint64_t seed,
                                                 double rate_per_s,
                                                 std::size_t count) {
  bitruss::Rng rng(seed);
  std::vector<std::int64_t> offsets;
  offsets.reserve(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log1p(-rng.NextDouble()) / rate_per_s;
    offsets.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return offsets;
}

/// Open-loop driver: calls send(i) for every scheduled offset in order,
/// waiting for each offset but never skipping or reordering a send, and
/// returns each send's lateness (start of the send minus its scheduled
/// time).  A stall makes every later send late until the generator catches
/// up, which is the wait the open loop charges to those requests.
/// `clock` supplies Now() (ns since the loop's start) and WaitUntil(ns).
template <typename ClockT, typename SendFn>
std::vector<std::int64_t> RunSchedule(const std::vector<std::int64_t>& schedule,
                                      ClockT& clock, SendFn&& send) {
  std::vector<std::int64_t> lateness;
  lateness.reserve(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (clock.Now() < schedule[i]) clock.WaitUntil(schedule[i]);
    lateness.push_back(std::max<std::int64_t>(0, clock.Now() - schedule[i]));
    send(i);
  }
  return lateness;
}

/// Earliest observation time of each update ordinal 1..max_ordinal.
/// `observations` are (applied_updates, time) pairs recorded by readers,
/// in any order; ordinal k becomes visible at the first time any reader
/// held a snapshot with applied_updates >= k.  Ordinals never observed
/// read -1.
inline std::vector<std::int64_t> FirstVisible(
    std::vector<std::pair<std::uint64_t, std::int64_t>> observations,
    std::uint64_t max_ordinal) {
  std::sort(observations.begin(), observations.end());
  // Suffix minimum of time over ascending applied counts.
  for (std::size_t i = observations.size(); i-- > 1;) {
    observations[i - 1].second =
        std::min(observations[i - 1].second, observations[i].second);
  }
  std::vector<std::int64_t> first(max_ordinal + 1, -1);
  std::size_t j = 0;
  for (std::uint64_t k = 1; k <= max_ordinal; ++k) {
    while (j < observations.size() && observations[j].first < k) ++j;
    if (j == observations.size()) break;
    first[k] = observations[j].second;
  }
  return first;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
