#include "bench_core.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perfbench {

double NearestRank(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

namespace {

// The summary rule shared by samples and histograms: the median plus the
// highest candidate percentile with at least `min_beyond` samples beyond.
template <typename PercentileFn>
TailSummary SummarizeWith(uint64_t count, uint64_t min_beyond,
                          const PercentileFn& percentile) {
  TailSummary out;
  out.count = count;
  if (count == 0) return out;
  out.p50 = percentile(50.0);
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    // Integer test of count * (1 - p/100) >= min_beyond, with p in
    // thousandths of a percent so 99.9 and friends stay exact.
    const uint64_t p_milli = static_cast<uint64_t>(std::llround(p * 1000.0));
    if (count * (100'000 - p_milli) < min_beyond * 100'000) break;
    out.tail_percentile = p;
    out.tail_value = percentile(p);
  }
  return out;
}

constexpr double kHistogramMinUs = 0.01;
constexpr double kHistogramMaxUs = 1e8;
constexpr double kHistogramStep = 0.002;  // relative bucket width

}  // namespace

TailSummary Summarize(std::vector<double> samples, uint64_t min_beyond) {
  std::sort(samples.begin(), samples.end());
  return SummarizeWith(samples.size(), min_beyond, [&](double p) {
    return NearestRank(samples, p);
  });
}

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<size_t>(
                   std::log(kHistogramMaxUs / kHistogramMinUs) /
                   std::log1p(kHistogramStep)) +
               1) {}

void LatencyHistogram::Add(double us) {
  const double clamped = std::clamp(us, kHistogramMinUs, kHistogramMaxUs);
  const size_t index = std::min(
      buckets_.size() - 1,
      static_cast<size_t>(std::log(clamped / kHistogramMinUs) /
                          std::log1p(kHistogramStep)));
  ++buckets_[index];
  ++count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  size_t index = 0;
  for (; index < buckets_.size(); ++index) {
    seen += buckets_[index];
    if (seen >= rank) break;
  }
  return kHistogramMinUs *
         std::pow(1.0 + kHistogramStep, static_cast<double>(index) + 0.5);
}

TailSummary Summarize(const LatencyHistogram& histogram,
                      uint64_t min_beyond) {
  return SummarizeWith(histogram.count(), min_beyond, [&](double p) {
    return histogram.Percentile(p);
  });
}

double P99CountingFailures(std::vector<double> latency_us, uint64_t failed) {
  if (latency_us.empty() && failed == 0) return 0.0;
  latency_us.insert(latency_us.end(), failed,
                    std::numeric_limits<double>::infinity());
  std::sort(latency_us.begin(), latency_us.end());
  return NearestRank(latency_us, 99.0);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double CalmMedian(const std::vector<double>& values,
                  const std::vector<double>& steal_pct) {
  if (values.size() != steal_pct.size()) {
    throw std::invalid_argument("values and steal differ in length");
  }
  const double cut = Median(steal_pct);
  std::vector<double> calm;
  for (size_t i = 0; i < values.size(); ++i) {
    if (steal_pct[i] <= cut) calm.push_back(values[i]);
  }
  return Median(std::move(calm));
}

int64_t Tracer::Begin(const char* name, uint64_t request_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost first; tolerate a mismatched End by unwinding to
  // the span being closed.
  while (!open_.empty()) {
    const int64_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                    uint64_t request_id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  spans_.push_back(std::move(span));
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[static_cast<size_t>(parent)].push_back(i);
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns;
    const uint64_t hi = std::max(spans[i].end_ns, lo);
    covered.clear();
    for (const size_t c : children[i]) {
      const uint64_t a = std::max(spans[c].start_ns, lo);
      const uint64_t b = std::min(spans[c].end_ns, hi);
      if (a < b) covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    uint64_t union_ns = 0;
    uint64_t run_start = 0;
    uint64_t run_end = 0;
    bool open_run = false;
    for (const auto& [a, b] : covered) {
      if (open_run && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open_run) union_ns += run_end - run_start;
      run_start = a;
      run_end = b;
      open_run = true;
    }
    if (open_run) union_ns += run_end - run_start;
    self[i] = (hi - lo) - union_ns;
  }
  return self;
}

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                      double duration_s) {
  std::vector<uint64_t> out;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return out;
  out.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  SeededRng rng(seed);
  const double mean_gap_ns = 1e9 / rate_per_s;
  const double end_ns = duration_s * 1e9;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.NextDouble()) * mean_gap_ns;
    if (t >= end_ns) break;
    out.push_back(static_cast<uint64_t>(t));
  }
  return out;
}

Staircase::Staircase(double floor, double ceiling, double min_step)
    : floor_(floor), ceiling_(ceiling), min_step_(min_step), rate_(floor) {}

void Staircase::Record(bool met, double offered) {
  if (!met && !trials_.empty() && trials_.back().met) {
    step_ = std::max(min_step_, std::sqrt(step_));
  }
  trials_.push_back(Trial{rate_, offered > 0.0 ? offered : rate_, met});
  rate_ = std::clamp(met ? rate_ * step_ : rate_ / step_, floor_, ceiling_);
}

double Staircase::Estimate() const {
  size_t first_peak = trials_.size();
  for (size_t i = 1; i < trials_.size(); ++i) {
    if (trials_[i - 1].met && !trials_[i].met) {
      first_peak = i;
      break;
    }
  }
  std::vector<double> offered;
  if (first_peak == trials_.size()) {
    for (const Trial& trial : trials_) {
      if (trial.met) offered.push_back(trial.offered);
    }
    return offered.empty() ? 0.0
                           : *std::max_element(offered.begin(), offered.end());
  }
  for (size_t i = first_peak; i < trials_.size(); ++i) {
    offered.push_back(trials_[i].offered);
  }
  return Median(std::move(offered));
}

void InflightTable::Insert(uint64_t request_id, const Pending& pending) {
  map_[request_id] = pending;
  max_size_ = std::max(max_size_, map_.size());
}

std::optional<Pending> InflightTable::Take(uint64_t request_id) {
  const auto it = map_.find(request_id);
  if (it == map_.end()) return std::nullopt;
  const Pending pending = it->second;
  map_.erase(it);
  return pending;
}

double AchievedOverOffered(const StepStats& step) {
  if (step.offered_per_s <= 0.0 || step.elapsed_s <= 0.0) return 0.0;
  return static_cast<double>(step.completed) / step.elapsed_s /
         step.offered_per_s;
}

bool StepMeets(const StepStats& step, const StepLimits& limits) {
  if (step.completed == 0) return false;
  if (step.p99_us > limits.p99_limit_us) return false;
  if (step.lag_p99_us > limits.lag_budget_us) return false;
  if (AchievedOverOffered(step) < 0.95) return false;
  return step.inflight_second_half <= 2.0 * step.inflight_first_half + 8.0;
}

}  // namespace perfbench
