// Tests of the benchmark's own measurement helpers: exact quantiles and
// the ten-beyond rule, the median, interleaved repetitions, the seeded Poisson
// schedule, open-loop lateness accounting, first-visible reduction and
// span self times.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "span_trace.h"
#include "stats.h"
#include "workload.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using perfbench::Samples;

void QuantilesAreExactNearestRank() {
  Samples s;
  for (std::uint64_t v = 1000; v >= 1; --v) s.Add(v);  // 1..1000, unsorted
  const auto p50 = s.At(0.50);
  EXPECT(p50.value == 500 && p50.count == 1000 && p50.beyond == 500);
  const auto p99 = s.At(0.99);
  EXPECT(p99.value == 990 && p99.beyond == 10 && p99.Supported());
  const auto p999 = s.At(0.999);
  EXPECT(p999.value == 999 && p999.beyond == 1 && !p999.Supported());
  EXPECT(s.At(1.0).value == 1000 && s.At(0.0).value == 1);
}

void QuantilesSpanDenseAndSparseValues() {
  Samples s;
  // Half below the dense limit, half far above it.
  for (std::uint64_t i = 0; i < 500; ++i) s.Add(7);
  for (std::uint64_t i = 0; i < 500; ++i) s.Add(5'000'000 + i);
  EXPECT(s.At(0.50).value == 7);
  EXPECT(s.At(0.501).value == 5'000'000);
  EXPECT(s.At(1.0).value == 5'000'499);
  Samples merged;
  merged.Merge(s);
  merged.Merge(s);
  EXPECT(merged.Count() == 2000 && merged.At(0.99).value == 5'000'489);
  EXPECT(merged.At(0.99).beyond == 20);
}

void TooFewSamplesForP99AreFlagged() {
  Samples s;
  for (std::uint64_t v = 0; v < 999; ++v) s.Add(v);
  EXPECT(!s.At(0.99).Supported());  // rank 990 leaves 9 beyond
  s.Add(999);
  EXPECT(s.At(0.99).Supported());
  Samples empty;
  EXPECT(!empty.At(0.5).Supported() && empty.At(0.5).count == 0);
}

void MedianOfOddAndEvenCounts() {
  using perfbench::Median;
  EXPECT(Median({}) == 0);
  EXPECT(Median({5}) == 5);
  EXPECT(Median({3, 1}) == 2);
  EXPECT(Median({100, 1, 2, 3, 4}) == 3);
  EXPECT(Median({1, 2, 3, 4, 5, 6, 7, 100}) == 4.5);
}

void InterleavingFollowsTheShares() {
  // Two measurements whose repetitions each take about 1 ms; the second
  // should get about three times the first's time, and both run.
  const auto busy_ms = [] {
    const std::int64_t end = perfbench::NowNs() + 1'000'000;
    while (perfbench::NowNs() < end) {
    }
  };
  std::vector<perfbench::Measurement> ms = {{"a", 0.25, busy_ms},
                                            {"b", 0.75, busy_ms}};
  perfbench::RunInterleaved(0.2, ms);
  EXPECT(ms[0].reps > 0 && ms[1].reps > 0);
  const double ratio = ms[1].spent_s / ms[0].spent_s;
  EXPECT(ratio > 2.5 && ratio < 3.5);
  EXPECT(ms[0].spent_s + ms[1].spent_s >= 0.2);
  // A single repetition longer than the whole budget still runs each once.
  std::vector<perfbench::Measurement> slow = {
      {"x", 0.5, busy_ms}, {"y", 0.5, busy_ms}};
  perfbench::RunInterleaved(0.0, slow);
  EXPECT(slow[0].reps == 1 && slow[1].reps == 1);
  // A capped measurement spreads its repetitions over the window and
  // leaves the rest of its share to the others.
  std::vector<std::int64_t> starts;
  const std::int64_t begin = perfbench::NowNs();
  std::vector<perfbench::Measurement> capped = {
      {"c",
       0.5,
       [&] {
         starts.push_back(perfbench::NowNs() - begin);
         busy_ms();
       },
       4},
      {"d", 0.5, busy_ms}};
  perfbench::RunInterleaved(0.2, capped);
  EXPECT(capped[0].reps == 4 && starts.size() == 4);
  EXPECT(starts.size() == 4 && starts[3] > 100'000'000);  // past 0.5 of it
  EXPECT(capped[1].spent_s > 0.18);
}

void PoissonScheduleIsSeededAndHasTheRate() {
  const auto a = perfbench::PoissonSchedule(42, 1000.0, 20000);
  const auto b = perfbench::PoissonSchedule(42, 1000.0, 20000);
  const auto c = perfbench::PoissonSchedule(43, 1000.0, 20000);
  EXPECT(a == b);
  EXPECT(a != c);
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] >= a[i - 1];
  EXPECT(increasing);
  // 20000 arrivals at 1000/s span about 20 s (sd of the sum ~ 0.14 s).
  const double span_s = static_cast<double>(a.back()) * 1e-9;
  EXPECT(span_s > 19.0 && span_s < 21.0);
}

/// Fake clock: time only moves when the driver waits or a send costs time.
struct FakeClock {
  std::int64_t now = 0;
  std::int64_t Now() const { return now; }
  void WaitUntil(std::int64_t t) { now = t; }
};

void LatenessChargesAStallToLaterSends() {
  const std::vector<std::int64_t> schedule = {0, 100, 200, 300, 400, 1000};
  FakeClock clock;
  std::vector<std::size_t> order;
  const auto late = perfbench::RunSchedule(schedule, clock, [&](std::size_t i) {
    order.push_back(i);
    clock.now += i == 1 ? 250 : 10;  // send 1 stalls for 250
  });
  EXPECT((order == std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  // Send 1 ends at 350: send 2 (due 200) is 150 late, send 3 (due 300)
  // starts at 360 and is 60 late, send 4 is on time, send 5 waits.
  EXPECT((late == std::vector<std::int64_t>{0, 0, 150, 60, 0, 0}));
}

void FirstVisibleTakesTheEarliestCoveringObservation() {
  // Two readers: reader A saw applied=3 at t=50, reader B saw applied=5 at
  // t=40 and applied=2 at t=10.
  const auto first =
      perfbench::FirstVisible({{3, 50}, {5, 40}, {2, 10}}, 6);
  EXPECT(first[1] == 10 && first[2] == 10);
  EXPECT(first[3] == 40 && first[4] == 40 && first[5] == 40);
  EXPECT(first[6] == -1);
}

void SelfTimeSubtractsMergedChildren() {
  perfbench::SpanRecorder rec("test");
  const auto root = rec.Add("run", perfbench::SpanRecorder::kNoParent, 0, 100);
  const auto phase = rec.Add("phase.a", root, 10, 90);
  rec.Add("serve.x", phase, 20, 40);
  rec.Add("serve.y", phase, 30, 50);  // overlaps x (another thread)
  rec.Add("core.z", phase, 60, 70);
  const auto totals = rec.Reduce();
  EXPECT(totals.at("run").self_ns == 20);
  EXPECT(totals.at("phase.a").total_ns == 80);
  EXPECT(totals.at("phase.a").self_ns == 80 - 30 - 10);
  EXPECT(totals.at("serve.x").self_ns == 20);
  const auto layers = rec.LayerCounts("phase.a");
  EXPECT(layers.at("serve") == 2 && layers.at("core") == 1);
  EXPECT(layers.count("run") == 0);
}

}  // namespace

int main() {
  QuantilesAreExactNearestRank();
  QuantilesSpanDenseAndSparseValues();
  TooFewSamplesForP99AreFlagged();
  MedianOfOddAndEvenCounts();
  InterleavingFollowsTheShares();
  PoissonScheduleIsSeededAndHasTheRate();
  LatenessChargesAStallToLaterSends();
  FirstVisibleTakesTheEarliestCoveringObservation();
  SelfTimeSubtractsMergedChildren();
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
