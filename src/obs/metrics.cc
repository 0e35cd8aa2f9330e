#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "util/memory_tracker.h"

namespace bitruss::obs {

namespace {

// %g keeps bucket bounds like 1, 0.5, 1e+06 readable and round-trippable
// for the golden exposition tests; sums get enough digits to be useful
// without drowning the text format in noise.
std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

void AppendJsonEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  // Value-initialized array: every bucket starts at 0 (std::atomic's
  // default constructor would leave them indeterminate before C++20).
  buckets_.reset(new std::atomic<std::uint64_t>[bounds_.size() + 1]());
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSample Histogram::Sample(std::string name) const {
  HistogramSample sample;
  sample.name = std::move(name);
  sample.bounds = bounds_;
  sample.bucket_counts.reserve(NumBuckets());
  for (std::size_t i = 0; i < NumBuckets(); ++i) {
    sample.bucket_counts.push_back(BucketCount(i));
  }
  sample.count = TotalCount();
  sample.sum = Sum();
  return sample;
}

double HistogramSample::Quantile(double q) const {
  if (count == 0 || bucket_counts.empty()) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const double rank = q * static_cast<double>(count);
  double cumulative = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket_counts[i]);
    if (cumulative + in_bucket < rank && i + 1 < bucket_counts.size()) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= bounds.size()) {
      // Rank falls in the +Inf bucket: no upper bound to interpolate
      // against, so clamp to the largest finite bound (the best estimate
      // the bucket layout can give).
      return bounds.empty() ? 0 : bounds.back();
    }
    if (in_bucket == 0) return bounds[i];
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double fraction = (rank - cumulative) / in_bucket;
    return lower + (bounds[i] - lower) * fraction;
  }
  return bounds.empty() ? 0 : bounds.back();
}

HistogramSample SubtractHistogramSample(const HistogramSample& after,
                                        const HistogramSample& before) {
  if (after.bounds != before.bounds ||
      after.bucket_counts.size() != before.bucket_counts.size()) {
    return after;
  }
  HistogramSample delta = after;
  for (std::size_t i = 0; i < delta.bucket_counts.size(); ++i) {
    const std::uint64_t b = before.bucket_counts[i];
    delta.bucket_counts[i] =
        after.bucket_counts[i] > b ? after.bucket_counts[i] - b : 0;
  }
  delta.count = after.count > before.count ? after.count - before.count : 0;
  delta.sum = after.sum > before.sum ? after.sum - before.sum : 0;
  return delta;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

const CounterSample* RegistrySnapshot::FindCounter(
    const std::string& name) const {
  for (const CounterSample& s : counters) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const GaugeSample* RegistrySnapshot::FindGauge(const std::string& name) const {
  for (const GaugeSample& s : gauges) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const HistogramSample* RegistrySnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSample& s : histograms) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked deliberately: instrument pointers cached by call sites must
  // outlive every static destructor that could still report into them.
  static MetricsRegistry* const instance = [] {
    auto* registry = new MetricsRegistry();
    registry->AddGaugeCallback("bitruss_process_rss_bytes", [] {
      return static_cast<std::int64_t>(CurrentRssBytes());
    });
    registry->AddGaugeCallback("bitruss_process_peak_rss_bytes", [] {
      return static_cast<std::int64_t>(PeakRssBytes());
    });
    return registry;
  }();
  return *instance;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  CounterFamily& family = counters_[name];
  if (!family.owned) family.owned = std::make_unique<Counter>();
  return family.owned.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Gauge>& gauge = gauges_[name];
  if (!gauge) gauge = std::make_unique<Gauge>();
  return gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  MutexLock lock(mu_);
  std::unique_ptr<Histogram>& histogram = histograms_[name];
  if (!histogram) histogram = std::make_unique<Histogram>(bounds);
  return histogram.get();
}

void MetricsRegistry::RegisterCounter(const std::string& name,
                                      const Counter* counter) {
  MutexLock lock(mu_);
  counters_[name].external.push_back(counter);
}

void MetricsRegistry::UnregisterCounter(const std::string& name,
                                        const Counter* counter) {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) return;
  auto& external = it->second.external;
  const auto pos = std::remove(external.begin(), external.end(), counter);
  if (pos == external.end()) return;  // was not registered
  external.erase(pos, external.end());
  // Absorb the departing instrument so family totals stay process-lifetime.
  if (!it->second.owned) it->second.owned = std::make_unique<Counter>();
  it->second.owned->Inc(counter->Value());
}

std::uint64_t MetricsRegistry::AddGaugeCallback(
    const std::string& name, std::function<std::int64_t()> fn) {
  MutexLock lock(mu_);
  const std::uint64_t handle = next_handle_++;
  callbacks_.push_back({handle, name, std::move(fn)});
  return handle;
}

void MetricsRegistry::RemoveGaugeCallback(std::uint64_t handle) {
  MutexLock lock(mu_);
  callbacks_.erase(std::remove_if(callbacks_.begin(), callbacks_.end(),
                                  [handle](const GaugeCallback& cb) {
                                    return cb.handle == handle;
                                  }),
                   callbacks_.end());
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snapshot;
  MutexLock lock(mu_);

  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, family] : counters_) {
    CounterSample sample;
    sample.name = name;
    if (family.owned) sample.value = family.owned->Value();
    for (const Counter* c : family.external) sample.value += c->Value();
    snapshot.counters.push_back(std::move(sample));
  }

  // Gauges: owned instruments and callbacks sum into one family per name.
  std::map<std::string, std::int64_t> gauge_values;
  for (const auto& [name, gauge] : gauges_) {
    gauge_values[name] += gauge->Value();
  }
  for (const GaugeCallback& cb : callbacks_) {
    gauge_values[cb.name] += cb.fn();
  }
  snapshot.gauges.reserve(gauge_values.size());
  for (const auto& [name, value] : gauge_values) {
    snapshot.gauges.push_back({name, value});
  }

  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back(histogram->Sample(name));
  }
  return snapshot;
}

std::string ExportPrometheus(const RegistrySnapshot& snapshot) {
  std::string out;
  for (const CounterSample& s : snapshot.counters) {
    out += "# TYPE " + s.name + " counter\n";
    out += s.name + " " + std::to_string(s.value) + "\n";
  }
  for (const GaugeSample& s : snapshot.gauges) {
    out += "# TYPE " + s.name + " gauge\n";
    out += s.name + " " + std::to_string(s.value) + "\n";
  }
  for (const HistogramSample& s : snapshot.histograms) {
    out += "# TYPE " + s.name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
      cumulative += s.bucket_counts[i];
      const std::string le =
          i < s.bounds.size() ? FormatDouble(s.bounds[i]) : "+Inf";
      out += s.name + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += s.name + "_sum " + FormatDouble(s.sum) + "\n";
    out += s.name + "_count " + std::to_string(s.count) + "\n";
  }
  return out;
}

}  // namespace bitruss::obs
