// The benchmark's workloads and the helpers they share: the seeded dataset,
// store construction, operation mixes, result reporting and the traced
// layer ladder. Every call into the shiftsplit library goes through its
// public headers; nothing here reaches into library internals.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_core.h"
#include "pipelined_load.h"
#include "shiftsplit/data/dataset.h"
#include "shiftsplit/net/server_stats.h"
#include "shiftsplit/storage/io_stats.h"
#include "shiftsplit/util/status.h"

namespace shiftsplit {
class WaveletCube;
}  // namespace shiftsplit

namespace perfbench {

// ---------------------------------------------------------------------------
// Errors: a library failure aborts the run by exception, so every object on
// the stack (server, cubes, threads) is torn down in order before exit.

inline void Check(const shiftsplit::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

template <typename T>
T Check(shiftsplit::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Reporting.

/// \brief Ordered JSON object built from already-encoded values.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Raw(const std::string& key, std::string encoded);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double value);
std::string JsonList(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief Everything one run reports.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;           ///< end-to-end or per-layer
  std::vector<std::string> check_failures;
  Json diag;                             ///< diagnostics, never gated
  Json stamp;                            ///< host and configuration facts

  void Put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& what) {
    correct = false;
    check_failures.push_back(what);
  }
};

/// \brief Command-line configuration of one run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;  ///< scratch space for stores, inside the checkout
};

// ---------------------------------------------------------------------------
// Data and stores.

/// \brief The seeded dataset: cell (x, y) holds k / 4 for a hashed
/// k in [0, 1024). Quarter-integers keep every sum the cube computes exact,
/// so answers can be compared bit for bit.
double CellValue(uint64_t seed, uint64_t x, uint64_t y);

/// \brief The dataset over a 2-d domain of `log_dims`, with rows offset by
/// `x_offset` (a shard's slab of the global dataset).
std::unique_ptr<shiftsplit::FunctionDataset> MakeDataset(
    uint64_t seed, const std::vector<uint32_t>& log_dims, uint64_t x_offset);

/// \brief Exact sum of the dataset over the inclusive box.
double DirectSum(uint64_t seed, const std::vector<uint64_t>& lo,
                 const std::vector<uint64_t>& hi);

inline constexpr uint32_t kTileLog = 4;     // b = 4: 16x16 tiles, 2 KiB blocks
inline constexpr uint32_t kChunkLog = 6;    // 64x64 ingest chunks
inline constexpr uint32_t kShards = 4;

/// \brief Cost of building one store.
struct BuiltStore {
  double ingest_s = 0.0;   ///< Ingest + Close
  double close_s = 0.0;
  uint64_t cells = 0;
  shiftsplit::IoStats io;  ///< block and coefficient I/O of the ingest
  uint64_t journal_commits = 0;
  uint64_t num_blocks = 0;  ///< layout blocks (per shard for sharded)
};

/// \brief Creates a checksummed, journaled standard-form store in `dir` and
/// ingests the dataset into it.
BuiltStore BuildMonolith(const std::string& dir,
                         const std::vector<uint32_t>& log_dims,
                         uint64_t pool_blocks, uint64_t seed, Tracer* tracer);

/// \brief Creates a kShards-way sharded store in `dir` and ingests each
/// shard's slab of the dataset into its own store.
BuiltStore BuildSharded(const std::string& dir,
                        const std::vector<uint32_t>& log_dims,
                        uint64_t pool_blocks_per_shard, uint64_t seed,
                        Tracer* tracer);

/// \brief Path of shard `s` inside a sharded store directory.
std::string ShardDir(const std::string& dir, uint32_t shard);

// ---------------------------------------------------------------------------
// Operation mixes.

struct Mix {
  double point = 1.0;
  double range = 0.0;
  double add = 0.0;
  bool zipf = true;  ///< Zipf(0.99) keys for points and adds; else uniform
};

inline constexpr double kZipfTheta = 0.99;
inline constexpr double kAddDelta = 0.25;

/// \brief `count` seeded operations over a 2-d domain.
std::vector<Op> MakeOps(uint64_t seed, const std::vector<uint32_t>& log_dims,
                        const Mix& mix, size_t count);

// ---------------------------------------------------------------------------
// Workloads and the ladder.

/// \brief Adds the server's point-request latency histogram counts between
/// two stats snapshots to `histogram`.
void AddPointLatencies(
    const shiftsplit::net::ServerStats& before,
    const shiftsplit::net::ServerStats& after,
    std::array<uint64_t, shiftsplit::net::kLatencyBuckets>* histogram);

/// \brief Upper bound of the server latency bucket holding the median of
/// `histogram` (per-bucket request counts; 0 when it is empty).
uint64_t HistogramMedianUs(
    const std::array<uint64_t, shiftsplit::net::kLatencyBuckets>& histogram);

/// \brief Block reads of one point query started from an empty pool
/// (Lemma 1: exactly one with scaling slots).
uint64_t ColdPointBlockReads(shiftsplit::WaveletCube* cube, const Op& op);

/// \brief Peak resident memory of this process so far, in MiB.
double PeakRssMib();

void RunNetReadHot(const Config& config, Report* report, Tracer* tracer);
void RunNetWriteMixed(const Config& config, Report* report, Tracer* tracer);
void RunLocalOlapCold(const Config& config, Report* report, Tracer* tracer);

/// \brief Per-layer counters a workload measured on its own serving path
/// (absent for the in-process workload, whose ladder supplies them).
struct ServedLayerStats {
  bool present = false;
  double overlay_hit_rate = 0.0;
  double latch_wait_us_per_read = 0.0;
  double latch_hold_us_max = 0.0;
  double deltas_per_log_sync = 0.0;
  double deltas_per_drain_batch = 0.0;
  double stall_us = 0.0;
  double rejected_unavailable = 0.0;
  double server_time_us = 0.0;
  double rejected_at_admission = 0.0;
  double deadline_expired_before_dispatch = 0.0;
};

/// \brief Inputs of the layer ladder: one seeded sample of a workload's
/// reads replayed through every layer, bottom to top.
struct LadderInput {
  std::string mono_dir;     ///< monolithic store of the dataset (closed)
  std::string sharded_dir;  ///< kShards-way store of the dataset (closed)
  uint64_t mono_pool = 256;
  uint64_t shard_pool = 256;
  bool warm = false;  ///< pre-load every block (the hot, pool-resident case)
  std::vector<Op> points;
  std::vector<Op> ranges;
  ServedLayerStats served;
  double client_point_p50_us = 0.0;  ///< from the workload, for net.wait_us
};

/// \brief Runs the ladder and appends every per-layer metric to `report`.
void RunLadder(const LadderInput& input, Report* report, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
