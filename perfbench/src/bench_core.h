// Pure logic of the benchmark, kept apart from the program under test so
// its own tests (tests/bench_core_test.cc) run without a store or a socket:
// percentile summaries with sample counts, span recording and self time,
// the seeded arrival schedule, the staircase rate search, the in-flight
// request table that matches replies by request id, and the verdict of one
// open-loop rate step.

#ifndef PERFBENCH_BENCH_CORE_H_
#define PERFBENCH_BENCH_CORE_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Latency summaries.

/// \brief Nearest-rank percentile of `sorted` (ascending, non-empty):
/// the smallest sample with at least p% of the samples at or below it.
double NearestRank(const std::vector<double>& sorted, double p);

/// \brief Median plus the highest tail percentile that has at least
/// `min_beyond` samples beyond it, with the sample count.
struct TailSummary {
  uint64_t count = 0;
  double p50 = 0.0;
  double tail_percentile = 0.0;  ///< 0 when not even p50 qualifies
  double tail_value = 0.0;
};

/// Candidate percentiles are 50, 90, 99, 99.9, 99.99 and 99.999; the tail
/// is the highest p with count * (1 - p/100) >= min_beyond.
TailSummary Summarize(std::vector<double> samples, uint64_t min_beyond = 10);

/// \brief Latency histogram in constant memory: log-spaced buckets 0.2%
/// wide from 0.01 us to 100 s (values outside are clamped to the end
/// buckets). For loops whose sample count grows with throughput, where
/// keeping every sample would make the benchmark's own memory follow the
/// program's speed.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double us);
  uint64_t count() const { return count_; }
  /// Nearest-rank percentile, as the geometric middle of its bucket.
  double Percentile(double p) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// \brief As Summarize, over a histogram (values within 0.1%).
TailSummary Summarize(const LatencyHistogram& histogram,
                      uint64_t min_beyond = 10);

/// \brief Nearest-rank p99 of `latency_us` with `failed` more requests
/// counted as infinitely late: a request that fails or is refused misses
/// any latency limit. +infinity once failures pass 1% of all requests.
double P99CountingFailures(std::vector<double> latency_us, uint64_t failed);

/// \brief Median of a copy of `values` (0 for an empty list); for an even
/// count, the mean of the two middle values.
double Median(std::vector<double> values);

/// \brief Median of the `values` measured in the calmer half of a run: those
/// whose interval's host steal (`steal_pct[i]`, the share of CPU time the
/// hypervisor gave to other guests during it) is at or below the median
/// steal. On a shared host the latency and throughput of an interval follow
/// its steal closely. With equal steal everywhere, as where none is
/// measured, the median of all values; 0 for an empty list. Throws when the
/// lists differ in length.
double CalmMedian(const std::vector<double>& values,
                  const std::vector<double>& steal_pct);

// ---------------------------------------------------------------------------
// Spans.

/// \brief One recorded interval: a call into a layer, timed from outside.
struct Span {
  std::string name;       ///< "<module>.<call>", e.g. "core.range_sum"
  uint64_t start_ns = 0;  ///< steady-clock nanoseconds
  uint64_t end_ns = 0;
  int64_t parent = -1;    ///< index of the enclosing span, -1 for a root
  uint64_t request_id = 0;
};

/// \brief In-memory span recorder for one thread. Disabled recorders cost
/// one branch per call and record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index
  /// (-1 when disabled).
  int64_t Begin(const char* name, uint64_t request_id = 0);
  void End(int64_t index);

  /// Records an already-timed span under the innermost open one.
  void Record(const char* name, uint64_t start_ns, uint64_t end_ns,
              uint64_t request_id = 0);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// \brief RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request_id = 0)
      : tracer_(tracer), index_(tracer->Begin(name, request_id)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

/// \brief Self time of every span: its duration minus the part of its
/// interval covered by the union of its children's intervals (children may
/// nest, overlap each other, or stick out of the parent; only the covered
/// part of the parent's own interval is subtracted).
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

/// \brief Steady-clock now in nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Seeded randomness and the arrival schedule.

/// \brief splitmix64 stream: small, seedable and identical everywhere.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
  /// Uniform in [0, bound).
  uint64_t NextBounded(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// \brief Poisson arrivals at `rate_per_s` over `duration_s`: ascending
/// send offsets in nanoseconds from the step start, identical for one seed.
std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                      double duration_s);

// ---------------------------------------------------------------------------
// Rate search.

/// \brief Up-down staircase for the highest rate that meets the limits.
/// It starts at `floor`; a met trial multiplies the rate by the current
/// step and a missed one divides it, within [floor, ceiling]. The step
/// starts at 2 and is square-rooted at each peak (a miss right after a
/// met trial), down to `min_step`, so the trials first find the knee's
/// octave and then straddle the knee; a run of misses below the knee, as a
/// host stall causes, does not shrink the step the climb back needs. The
/// caller runs one trial per Next()/Record() pair and may interleave other
/// work between trials; a fixed number of trials keeps the run length
/// independent of the outcome.
class Staircase {
 public:
  Staircase(double floor, double ceiling, double min_step);

  /// The rate of the next trial.
  double Next() const { return rate_; }
  /// Records the verdict of a trial at Next() and moves the rate.
  /// `offered` is the rate the trial actually offered (its seeded schedule's
  /// requests over its length; 0: exactly Next()); Estimate() works on it.
  void Record(bool met, double offered = 0.0);

  /// The median offered rate of the trials from the first peak on: by
  /// then the staircase straddles the knee, and a 1-up-1-down staircase
  /// spends half its trials on either side of the rate that meets half the
  /// time. A wrong verdict moves one trial by one step, where a bisection
  /// would lose half of its remaining range, and a host that slows during
  /// the run moves the median by the share of trials it slowed, not by
  /// where the slowing fell. Without a peak: the highest offered rate met,
  /// or 0 when nothing met.
  double Estimate() const;

  struct Trial {
    double rate = 0.0;     ///< the staircase's rate
    double offered = 0.0;  ///< what the trial offered
    bool met = false;
  };
  const std::vector<Trial>& trials() const { return trials_; }

 private:
  double floor_;
  double ceiling_;
  double min_step_;
  double rate_;
  double step_ = 2.0;
  std::vector<Trial> trials_;
};

// ---------------------------------------------------------------------------
// Open-loop bookkeeping.

/// \brief What the generator remembers about one request in flight.
struct Pending {
  uint64_t scheduled_ns = 0;
  uint32_t op_index = 0;
};

/// \brief Requests in flight keyed by request id, so replies match their
/// request whatever order they arrive in.
class InflightTable {
 public:
  void Insert(uint64_t request_id, const Pending& pending);
  /// Removes and returns the request; nullopt for an unknown id (a reply
  /// to nothing, or a duplicate).
  std::optional<Pending> Take(uint64_t request_id);
  size_t size() const { return map_.size(); }
  size_t max_size() const { return max_size_; }

 private:
  std::unordered_map<uint64_t, Pending> map_;
  size_t max_size_ = 0;
};

/// \brief Outcome of one open-loop step at one offered rate.
struct StepStats {
  double offered_per_s = 0.0;  ///< scheduled requests over the step length
  double elapsed_s = 0.0;      ///< step start to the last reply (or the end)
  uint64_t scheduled = 0;      ///< requests the schedule asked for
  uint64_t completed = 0;      ///< successful replies
  uint64_t failed = 0;         ///< error replies, wrong answers, never sent
  /// Latency from the scheduled send over every request, a failed one
  /// counting as infinitely late (P99CountingFailures).
  double p99_us = 0.0;
  double lag_p99_us = 0.0;     ///< actual send minus scheduled send
  double inflight_first_half = 0.0;   ///< mean in-flight, first half of sends
  double inflight_second_half = 0.0;  ///< mean in-flight, second half
};

/// \brief Limits a step must meet to count.
struct StepLimits {
  double p99_limit_us = 0.0;
  double lag_budget_us = 0.0;
};

/// \brief True when the step met its limits: p99 within the limit (failed
/// requests count as over it), generator lag p99 within budget, an achieved
/// rate (completions over elapsed time) at least 95% of the offered one,
/// and no growing backlog (mean in-flight over the second half of the sends
/// at most twice that of the first half, plus 8).
bool StepMeets(const StepStats& step, const StepLimits& limits);

/// \brief Completions per second of elapsed time over the offered rate.
double AchievedOverOffered(const StepStats& step);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CORE_H_
