// Tests of the benchmark's own logic (src/bench_core.h). Build and run with
//   python3 perfbench/run.py --selftest
// Exits non-zero when any expectation fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "bench_core.h"

using namespace perfbench;

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void TestPercentileWithSampleCount() {
  // 1..1000: p50 = 500 by nearest rank. p99 leaves 10 samples beyond it,
  // p99.9 only 1, so p99 is the highest reportable tail.
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  const TailSummary s = Summarize(samples);
  EXPECT(s.count == 1000);
  EXPECT(s.p50 == 500.0);
  EXPECT(s.tail_percentile == 99.0);
  EXPECT(s.tail_value == 990.0);

  // 999 samples: p99 would leave 9.99 beyond it, so only p90 qualifies.
  samples.pop_back();
  EXPECT(Summarize(samples).tail_percentile == 90.0);

  // 100000 samples reach p99.99 (10 beyond) but not p99.999 (1 beyond).
  std::vector<double> big(100000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
  const TailSummary b = Summarize(big);
  EXPECT(b.tail_percentile == 99.99);
  EXPECT(b.tail_value == 99989.0);

  // Too few samples for any tail: the median is still reported.
  const TailSummary tiny = Summarize({3.0, 1.0, 2.0});
  EXPECT(tiny.count == 3);
  EXPECT(tiny.p50 == 2.0);
  EXPECT(tiny.tail_percentile == 0.0);
  EXPECT(Summarize(std::vector<double>{}).count == 0);

  // Failures count as infinitely late: one failure in 1000 requests leaves
  // the p99 finite, eleven push it to infinity.
  std::vector<double> ok(999, 10.0);
  ok.back() = 20.0;
  EXPECT(P99CountingFailures(ok, 1) == 10.0);
  EXPECT(std::isinf(P99CountingFailures(ok, 11)));
  EXPECT(P99CountingFailures({}, 0) == 0.0);

  // The histogram applies the same rule within its 0.2% bucket width.
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Add(i);
  const TailSummary h = Summarize(hist);
  EXPECT(h.count == 1000);
  EXPECT(std::fabs(h.p50 - 500.0) <= 0.002 * 500.0);
  EXPECT(h.tail_percentile == 99.0);
  EXPECT(std::fabs(h.tail_value - 990.0) <= 0.002 * 990.0);
  EXPECT(Summarize(LatencyHistogram()).count == 0);

  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  EXPECT(Median({5.0}) == 5.0);
}

Span MakeSpan(uint64_t start, uint64_t end, int64_t parent) {
  return Span{"x", start, end, parent, 0};
}

void TestCalmMedian() {
  // Nine intervals; the four with the most steal ran slow. The median of
  // all is 45; the calmer five give 43.
  const std::vector<double> p50 = {41, 43, 95, 44, 60, 42, 48, 120, 45};
  const std::vector<double> steal = {1.0, 2.0, 12.0, 0.5, 9.0,
                                     1.5, 7.0, 15.0, 2.5};
  EXPECT(Median(p50) == 45.0);
  EXPECT(CalmMedian(p50, steal) == 43.0);
  // No steal measured: every interval counts.
  EXPECT(CalmMedian(p50, std::vector<double>(9, 0.0)) == 45.0);
  EXPECT(CalmMedian({}, {}) == 0.0);
  bool threw = false;
  try {
    CalmMedian({1.0}, {});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

void TestSpanSelfTime() {
  // root [0,100] with children [10,30] and [20,50] (overlapping: union 40)
  // and [90,120] (sticks out: only [90,100] counts). Child [20,50] has a
  // nested grandchild [25,35].
  std::vector<Span> spans = {
      MakeSpan(0, 100, -1),  // 0
      MakeSpan(10, 30, 0),   // 1
      MakeSpan(20, 50, 0),   // 2
      MakeSpan(90, 120, 0),  // 3
      MakeSpan(25, 35, 2),   // 4
      MakeSpan(200, 260, -1),  // 5: a second root, no children
  };
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 30 - 10);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 10);
  EXPECT(self[5] == 60);

  // A child fully covering its parent leaves zero self time, and two
  // identical children count once.
  std::vector<Span> cover = {MakeSpan(0, 10, -1), MakeSpan(0, 10, 0),
                             MakeSpan(0, 10, 0)};
  EXPECT(SelfTimesNs(cover)[0] == 0);

  // The recorder nests by scope and a disabled one records nothing.
  Tracer tracer(true);
  {
    ScopedSpan outer(&tracer, "a.outer", 7);
    { ScopedSpan inner(&tracer, "b.inner", 7); }
    tracer.Record("c.timed", 1, 2, 7);
  }
  EXPECT(tracer.spans().size() == 3);
  EXPECT(tracer.spans()[1].parent == 0);
  EXPECT(tracer.spans()[2].parent == 0);
  EXPECT(tracer.spans()[0].parent == -1);
  EXPECT(tracer.spans()[1].request_id == 7);
  Tracer off(false);
  { ScopedSpan s(&off, "a.outer"); }
  EXPECT(off.spans().empty());
}

void TestSeededSchedule() {
  const auto a = PoissonSchedule(42, 10000.0, 2.0);
  const auto b = PoissonSchedule(42, 10000.0, 2.0);
  const auto c = PoissonSchedule(43, 10000.0, 2.0);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(!a.empty());
  for (size_t i = 1; i < a.size(); ++i) EXPECT(a[i - 1] <= a[i]);
  EXPECT(a.back() < 2'000'000'000ull);
  // 20000 expected arrivals; 5 standard deviations is about 700.
  EXPECT(std::fabs(static_cast<double>(a.size()) - 20000.0) < 700.0);
  SeededRng r1(9), r2(9);
  for (int i = 0; i < 100; ++i) EXPECT(r1.Next() == r2.Next());
}

// Runs `trials` staircase trials against `meets` and returns the estimate.
template <typename Meets>
double RunStaircase(Staircase* staircase, int trials, Meets meets) {
  for (int i = 0; i < trials; ++i) {
    staircase->Record(meets(staircase->Next()));
  }
  return staircase->Estimate();
}

void TestRateSearch() {
  // Synthetic latency curve: p99 = 100 us / (1 - rate / knee), limit 1 ms,
  // so the highest rate meeting the limit is 0.9 * knee.
  const double knee = 90000.0;
  const double limit_rate = 0.9 * knee;
  const double step = std::pow(2.0, 1.0 / 16.0);
  auto meets = [&](double rate) {
    if (rate >= knee) return false;
    return 100.0 / (1.0 - rate / knee) <= 1000.0;
  };
  Staircase clean(16000.0, 512000.0, step);
  const double found = RunStaircase(&clean, 36, meets);
  EXPECT(clean.trials().size() == 36);
  // The median straddles the limit within a step.
  EXPECT(found >= limit_rate / step);
  EXPECT(found <= limit_rate * step);
  // The step shrank to its minimum: the last trials straddle the limit.
  const auto& tried = clean.trials();
  for (size_t i = tried.size() - 6; i < tried.size(); ++i) {
    EXPECT(tried[i].rate >= limit_rate / (step * step));
    EXPECT(tried[i].rate <= limit_rate * step * step);
  }

  // A burst of spurious misses early on (a host stall), then one more
  // near the end: the staircase climbs back without having shrunk its
  // step, and the estimate stays within two steps of the clean one, where
  // a bisection would have lost the upper half of its range at the first
  // miss.
  int calls = 0;
  auto flaky = [&](double rate) {
    ++calls;
    if ((calls >= 3 && calls <= 6) || calls == 30) return false;
    return meets(rate);
  };
  Staircase stalled(16000.0, 512000.0, step);
  const double robust = RunStaircase(&stalled, 36, flaky);
  EXPECT(robust >= found / (step * step));
  EXPECT(robust <= found * step);

  // Nothing meets: the trials stay at the floor and the estimate is 0.
  Staircase none(1000.0, 64000.0, step);
  EXPECT(RunStaircase(&none, 6, [](double) { return false; }) == 0.0);
  for (const auto& t : none.trials()) EXPECT(t.rate == 1000.0);
  // Everything meets: the trials climb to the ceiling and stay there.
  Staircase all(1000.0, 64000.0, step);
  EXPECT(RunStaircase(&all, 12, [](double) { return true; }) == 64000.0);
  // The estimate works on what each trial offered, not on the nominal
  // rate that chose it: met 103 (nominal 100), then missed 197, 141 and
  // 99 (nominal 200, 100 and 100); the median of the last three is 141.
  Staircase offered(100.0, 800.0, 2.0);
  offered.Record(true, 103.0);
  offered.Record(false, 197.0);
  offered.Record(false, 141.0);
  offered.Record(false, 99.0);
  EXPECT(offered.trials()[1].rate == 200.0);
  EXPECT(offered.Estimate() == 141.0);
}

void TestOutOfOrderReplies() {
  InflightTable table;
  for (uint64_t id = 1; id <= 5; ++id) {
    table.Insert(id, Pending{id * 100, static_cast<uint32_t>(id * 10)});
  }
  EXPECT(table.size() == 5);
  EXPECT(table.max_size() == 5);
  // Replies arrive 4, 1, 5, 3, 2: each matches its own request.
  for (const uint64_t id : {4ull, 1ull, 5ull, 3ull, 2ull}) {
    const auto pending = table.Take(id);
    EXPECT(pending.has_value());
    if (pending) {
      EXPECT(pending->scheduled_ns == id * 100);
      EXPECT(pending->op_index == id * 10);
    }
  }
  EXPECT(table.size() == 0);
  EXPECT(table.max_size() == 5);
  // A duplicate or unknown reply matches nothing.
  EXPECT(!table.Take(3).has_value());
  EXPECT(!table.Take(99).has_value());
}

void TestStepVerdict() {
  StepStats step;
  step.offered_per_s = 1000.0;
  step.elapsed_s = 2.0;
  step.scheduled = 2000;
  step.completed = 2000;
  step.p99_us = 400.0;
  step.lag_p99_us = 20.0;
  step.inflight_first_half = 3.0;
  step.inflight_second_half = 4.0;
  StepLimits limits;
  limits.p99_limit_us = 500.0;
  limits.lag_budget_us = 100.0;
  EXPECT(StepMeets(step, limits));
  EXPECT(std::fabs(AchievedOverOffered(step) - 1.0) < 1e-12);

  StepStats bad = step;
  bad.completed = 0;
  EXPECT(!StepMeets(bad, limits));
  bad = step;
  bad.p99_us = 501.0;
  EXPECT(!StepMeets(bad, limits));
  bad = step;
  bad.lag_p99_us = 101.0;
  EXPECT(!StepMeets(bad, limits));
  bad = step;
  bad.elapsed_s = 2.5;  // replies trickled in long after the schedule ended
  EXPECT(!StepMeets(bad, limits));
  bad = step;
  bad.inflight_second_half = 40.0;  // growing backlog
  EXPECT(!StepMeets(bad, limits));
}

}  // namespace

int main() {
  TestPercentileWithSampleCount();
  TestCalmMedian();
  TestSpanSelfTime();
  TestSeededSchedule();
  TestRateSearch();
  TestOutOfOrderReplies();
  TestStepVerdict();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
