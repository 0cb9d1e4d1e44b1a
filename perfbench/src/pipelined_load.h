// Open-loop load over the wire protocol from one generator thread. Requests
// are pre-encoded, sent on a seeded Poisson schedule round-robin over a few
// pipelined connections, and matched to their replies by request id, so a
// slow reply never delays the next send. A closed-loop mode keeps a fixed
// number of requests in flight instead, to measure throughput. Latency is timed from the
// scheduled send; the generator's own lateness (actual minus scheduled
// send), its in-flight count and its busy time are reported beside it.

#ifndef PERFBENCH_PIPELINED_LOAD_H_
#define PERFBENCH_PIPELINED_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_core.h"

namespace perfbench {

enum class OpKind : uint8_t { kPoint = 0, kRange = 1, kAdd = 2 };
inline constexpr int kOpKinds = 3;
const char* OpKindName(OpKind kind);

/// \brief One request of a workload: a point, a range [a, b], or an Add of
/// `delta` at a.
struct Op {
  OpKind kind = OpKind::kPoint;
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
  double delta = 0.0;
};

/// \brief Outcome of one open-loop step.
struct LoadStep {
  StepStats stats;
  std::vector<double> latency_us[kOpKinds];  ///< successes, by kind
  std::vector<double> lag_us;                ///< every sent request
  uint64_t failed_by_kind[kOpKinds] = {0, 0, 0};
  uint64_t acked_adds = 0;
  uint64_t unmatched_replies = 0;  ///< replies to no request in flight
  size_t max_inflight = 0;
  /// Generator busy time (iterations that sent or received) per sent
  /// request.
  double busy_us_per_request = 0.0;
  /// (op index, value) of every successful point/range reply whose index is
  /// a multiple of the step's sample stride, for answer checks.
  std::vector<std::pair<uint32_t, double>> sampled;
};

/// \brief Appends `step` to `into`: latency and lag samples concatenate,
/// counts add, and the summary statistics are recomputed over the union,
/// as if the steps had been one step of their combined length. Sampled
/// answers index their own step's operations and are not carried over.
void Append(LoadStep* into, const LoadStep& step);

/// \brief Knobs of one step.
struct StepPlan {
  double duration_s = 1.0;
  uint32_t deadline_ms = 0;      ///< carried in every frame; 0 = none
  uint32_t sample_stride = 0;    ///< 0 = sample nothing
  /// Nonzero makes the step a closed loop: the schedule is ignored, and a
  /// request goes out whenever fewer than this many are in flight, until
  /// the step's duration ends or the operations run out. Latency is then
  /// timed from the actual send.
  size_t closed_depth = 0;
};

class PipelinedLoad {
 public:
  PipelinedLoad(uint16_t port, int connections, std::string cube);
  ~PipelinedLoad();
  PipelinedLoad(const PipelinedLoad&) = delete;
  PipelinedLoad& operator=(const PipelinedLoad&) = delete;

  /// Opens the connections; throws on failure.
  void Connect();

  /// Sends ops[i] at schedule_ns[i] after the step start (both the same
  /// length; a closed-loop step takes an empty schedule and sends as soon
  /// as its depth allows) and collects every reply. Spans ("net.request" per reply,
  /// "net.write"/"net.read" per syscall) go to `tracer` when it is enabled.
  LoadStep RunStep(const std::vector<Op>& ops,
                   const std::vector<uint64_t>& schedule_ns,
                   const StepPlan& plan, Tracer* tracer);

 private:
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> out;
    size_t out_pos = 0;
    std::vector<uint8_t> in;
  };

  uint16_t port_;
  std::string cube_;
  std::vector<Conn> conns_;
  uint64_t next_request_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINED_LOAD_H_
