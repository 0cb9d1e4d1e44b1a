#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <memory>

#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/net/cube_client.h"
#include "shiftsplit/net/cube_registry.h"
#include "shiftsplit/net/cube_server.h"
#include "shiftsplit/service/serving_cube.h"
#include "shiftsplit/service/sharded_cube.h"
#include "shiftsplit/util/random.h"

namespace perfbench {

using namespace shiftsplit;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Reporting.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

Json& Json::Num(const std::string& key, double value) {
  return Raw(key, JsonNumber(value));
}

Json& Json::Str(const std::string& key, const std::string& value) {
  return Raw(key, JsonString(value));
}

Json& Json::Raw(const std::string& key, std::string encoded) {
  fields_.emplace_back(key, std::move(encoded));
  return *this;
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Data and stores.

double CellValue(uint64_t seed, uint64_t x, uint64_t y) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + (x << 32) + y;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z & 1023) * 0.25;
}

std::unique_ptr<FunctionDataset> MakeDataset(
    uint64_t seed, const std::vector<uint32_t>& log_dims, uint64_t x_offset) {
  std::vector<uint64_t> dims;
  for (const uint32_t l : log_dims) dims.push_back(uint64_t{1} << l);
  return std::make_unique<FunctionDataset>(
      TensorShape(dims), [seed, x_offset](std::span<const uint64_t> c) {
        return CellValue(seed, c[0] + x_offset, c[1]);
      });
}

double DirectSum(uint64_t seed, const std::vector<uint64_t>& lo,
                 const std::vector<uint64_t>& hi) {
  double sum = 0.0;
  for (uint64_t x = lo[0]; x <= hi[0]; ++x) {
    double row = 0.0;
    for (uint64_t y = lo[1]; y <= hi[1]; ++y) row += CellValue(seed, x, y);
    sum += row;
  }
  return sum;
}

namespace {

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

WaveletCube::Options CubeOptions(uint64_t pool_blocks) {
  WaveletCube::Options options;
  options.form = StoreForm::kStandard;
  options.b = kTileLog;
  options.pool_blocks = pool_blocks;
  return options;
}

// Ingests `dataset` into the open `cube`, then closes it; adds the cost to
// `out`.
void IngestAndClose(WaveletCube* cube, ChunkSource* dataset, Tracer* tracer,
                    BuiltStore* out) {
  const IoStats io_before = cube->stats();
  const uint64_t commits_before = cube->durability_stats().journal_commits;
  const uint64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "core.ingest");
    Check(cube->Ingest(dataset, kChunkLog), "ingest");
  }
  const uint64_t t1 = NowNs();
  {
    ScopedSpan span(tracer, "core.close");
    Check(cube->Close(), "close after ingest");
  }
  const uint64_t t2 = NowNs();
  out->io += cube->stats() - io_before;
  out->journal_commits +=
      cube->durability_stats().journal_commits - commits_before;
  out->ingest_s += Seconds(t0, t2);
  out->close_s += Seconds(t1, t2);
  out->cells += dataset->shape().num_elements();
  out->num_blocks = cube->store()->layout().num_blocks();
}

}  // namespace

std::string ShardDir(const std::string& dir, uint32_t shard) {
  return (fs::path(dir) / ShardSetManifest::ShardDirName(shard)).string();
}

BuiltStore BuildMonolith(const std::string& dir,
                         const std::vector<uint32_t>& log_dims,
                         uint64_t pool_blocks, uint64_t seed, Tracer* tracer) {
  fs::remove_all(dir);
  BuiltStore out;
  std::unique_ptr<WaveletCube> cube;
  {
    ScopedSpan span(tracer, "core.create");
    cube = Check(
        WaveletCube::CreateOnDisk(dir, log_dims, CubeOptions(pool_blocks)),
        "create store");
  }
  auto dataset = MakeDataset(seed, log_dims, 0);
  IngestAndClose(cube.get(), dataset.get(), tracer, &out);
  return out;
}

BuiltStore BuildSharded(const std::string& dir,
                        const std::vector<uint32_t>& log_dims,
                        uint64_t pool_blocks_per_shard, uint64_t seed,
                        Tracer* tracer) {
  fs::remove_all(dir);
  {
    ScopedSpan span(tracer, "service.create_sharded");
    ShardedCube::Options options;
    options.serving.start_workers = false;
    options.supervise = false;
    options.track_energy = false;
    options.pool_blocks_per_shard = pool_blocks_per_shard;
    auto sharded = Check(
        ShardedCube::CreateOnDisk(dir, log_dims, kShards,
                                  CubeOptions(pool_blocks_per_shard), options),
        "create sharded store");
    Check(sharded->Close(), "close fresh sharded store");
  }
  // The split is along dimension 0 (both dimensions are equally wide, ties
  // go to the lowest index): shard s owns rows [s * rows, (s + 1) * rows).
  std::vector<uint32_t> shard_dims = log_dims;
  shard_dims[0] -= std::countr_zero(kShards);
  const uint64_t rows = uint64_t{1} << shard_dims[0];
  BuiltStore out;
  for (uint32_t s = 0; s < kShards; ++s) {
    auto cube = Check(
        WaveletCube::OpenOnDisk(ShardDir(dir, s), pool_blocks_per_shard),
        "open shard store");
    auto dataset = MakeDataset(seed, shard_dims, s * rows);
    IngestAndClose(cube.get(), dataset.get(), tracer, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Operation mixes.

namespace {

/// Seeded stream of operations; reuses the caller's Op to avoid allocation
/// inside timed loops.
class OpStream {
 public:
  OpStream(uint64_t seed, const std::vector<uint32_t>& log_dims,
           const Mix& mix)
      : rng_(seed), log_dims_(log_dims), mix_(mix) {
    uint32_t bits = 0;
    for (const uint32_t l : log_dims) bits += l;
    cells_ = uint64_t{1} << bits;
    if (mix.zipf) {
      zipf_ = std::make_unique<BoundedZipfSampler>(cells_, kZipfTheta);
    }
  }

  void Next(Op* op) {
    const double u = rng_.NextDouble();
    op->kind = u < mix_.point ? OpKind::kPoint
               : u < mix_.point + mix_.range ? OpKind::kRange
                                             : OpKind::kAdd;
    op->a.resize(log_dims_.size());
    op->b.clear();
    op->delta = 0.0;
    if (op->kind == OpKind::kRange) {
      op->b.resize(log_dims_.size());
      for (size_t d = 0; d < log_dims_.size(); ++d) {
        const uint64_t extent = uint64_t{1} << log_dims_[d];
        const uint64_t p = rng_.NextBounded(extent);
        const uint64_t q = rng_.NextBounded(extent);
        op->a[d] = std::min(p, q);
        op->b[d] = std::max(p, q);
      }
      return;
    }
    uint64_t index = 0;
    if (zipf_) {
      // Scatter the hot ranks over the domain with an odd-multiplier
      // bijection, so the hot set is not one corner (or one shard).
      index = (zipf_->Sample(rng_) * 0x9e3779b97f4a7c15ull) & (cells_ - 1);
    } else {
      index = rng_.NextBounded(cells_);
    }
    for (size_t d = log_dims_.size(); d-- > 0;) {
      op->a[d] = index & ((uint64_t{1} << log_dims_[d]) - 1);
      index >>= log_dims_[d];
    }
    if (op->kind == OpKind::kAdd) op->delta = kAddDelta;
  }

 private:
  Xoshiro256 rng_;
  std::vector<uint32_t> log_dims_;
  Mix mix_;
  uint64_t cells_ = 0;
  std::unique_ptr<BoundedZipfSampler> zipf_;
};

}  // namespace

std::vector<Op> MakeOps(uint64_t seed, const std::vector<uint32_t>& log_dims,
                        const Mix& mix, size_t count) {
  OpStream stream(seed, log_dims, mix);
  std::vector<Op> ops(count);
  for (Op& op : ops) stream.Next(&op);
  return ops;
}

// ---------------------------------------------------------------------------
// Shared measurement helpers.

namespace {

const std::vector<uint32_t> kNetDims = {11, 11};    // 2048 x 2048
const std::vector<uint32_t> kLocalDims = {12, 12};  // 4096 x 4096
const Mix kLocalMix{0.5, 0.5, 0, false};  // uniform points and ranges
constexpr uint64_t kIngestPool = 256;
// Setups per untraced run; setup_s is their median.
constexpr int kNetSetupRepeats = 5;    // ~0.4 s each
constexpr int kLocalSetupRepeats = 3;  // ~1.6 s each
constexpr int kConnections = 4;
constexpr uint32_t kServerLoops = 2;
constexpr uint64_t kLadderSeed = 0x1add3e5ull;

// The mix-weighted mean of the per-kind median latencies: stable where the
// median of a mix of fast and slow kinds would jump between them.
double MixP50(const Mix& mix, const TailSummary (&latency)[kOpKinds]) {
  const double share[kOpKinds] = {mix.point, mix.range, mix.add};
  double out = 0.0;
  for (int k = 0; k < kOpKinds; ++k) out += share[k] * latency[k].p50;
  return out;
}

std::string TailJson(const TailSummary& t) {
  Json j;
  j.Num("count", static_cast<double>(t.count))
      .Num("p50", t.p50)
      .Num("tail_percentile", t.tail_percentile)
      .Num("tail_value", t.tail_value);
  return j.Dump();
}

// Lemma 2's bound on coefficients read by one range sum, with the exact
// count per dimension: 2 * log2(N_d) + 1.
uint64_t Lemma2Bound(const std::vector<uint32_t>& log_dims) {
  uint64_t bound = 1;
  for (const uint32_t l : log_dims) bound *= 2 * uint64_t{l} + 1;
  return bound;
}

// Paper-bound checks on an open cube, outside any timed section: exactly
// one block read per point query with scaling slots from an empty pool
// (Lemma 1) and at most Lemma2Bound coefficient reads per range sum.
void CheckPaperBounds(WaveletCube* cube, const std::vector<uint32_t>& dims,
                      uint64_t seed, Report* report) {
  const auto points = MakeOps(seed ^ 0x1e33a1ull, dims, Mix{1, 0, 0, false},
                              200);
  const auto ranges = MakeOps(seed ^ 0x1e33a2ull, dims, Mix{0, 1, 0, false},
                              100);
  uint64_t lemma1_bad = 0;
  for (const Op& op : points) {
    if (ColdPointBlockReads(cube, op) != 1) ++lemma1_bad;
  }
  const uint64_t bound = Lemma2Bound(dims);
  uint64_t lemma2_bad = 0;
  uint64_t max_reads = 0;
  for (const Op& op : ranges) {
    const uint64_t before = cube->stats().coeff_reads;
    Check(cube->RangeSum(op.a, op.b).status(), "bound-check range");
    const uint64_t reads = cube->stats().coeff_reads - before;
    max_reads = std::max(max_reads, reads);
    if (reads > bound) ++lemma2_bad;
  }
  report->attempted += points.size() + ranges.size();
  report->failed += lemma1_bad + lemma2_bad;
  if (lemma1_bad != 0) {
    report->Fail("Lemma 1: " + std::to_string(lemma1_bad) +
                 " point queries read other than exactly one block");
  }
  if (lemma2_bad != 0) {
    report->Fail("Lemma 2: " + std::to_string(lemma2_bad) +
                 " range sums read more than " + std::to_string(bound) +
                 " coefficients");
  }
  Json j;
  j.Num("lemma1_points", static_cast<double>(points.size()))
      .Num("lemma1_violations", static_cast<double>(lemma1_bad))
      .Num("lemma2_ranges", static_cast<double>(ranges.size()))
      .Num("lemma2_bound", static_cast<double>(bound))
      .Num("lemma2_max_coeff_reads", static_cast<double>(max_reads))
      .Num("lemma2_violations", static_cast<double>(lemma2_bad));
  report->diag.Raw("paper_bounds", j.Dump());
}

// Reports the setups of a run: setup_s (their median) in untraced runs, the
// ingest's cost per layer in traced runs, and in both the check that every
// setup did exactly the same block and coefficient I/O (the ingest is
// deterministic).
void ReportSetup(const Config& config, const std::vector<double>& setup_s,
                 const std::vector<BuiltStore>& builds, Report* report) {
  const BuiltStore& first = builds.front();
  std::vector<double> rates;
  for (const BuiltStore& b : builds) {
    if (!(b.io == first.io)) {
      report->Fail("ingest I/O differs between setups: " +
                   first.io.ToString() + " vs " + b.io.ToString());
    }
    rates.push_back(static_cast<double>(b.cells) / 1e6 / b.ingest_s);
  }
  Json io;
  io.Num("cells", static_cast<double>(first.cells))
      .Num("block_reads", static_cast<double>(first.io.block_reads))
      .Num("block_writes", static_cast<double>(first.io.block_writes))
      .Num("coeff_reads", static_cast<double>(first.io.coeff_reads))
      .Num("coeff_writes", static_cast<double>(first.io.coeff_writes))
      .Num("journal_commits", static_cast<double>(first.journal_commits))
      .Num("setups", static_cast<double>(builds.size()))
      .Num("ingest_mcells_s", Median(rates));
  report->diag.Raw("ingest_io", io.Dump());
  report->diag.Raw("setup_s_each", JsonList(setup_s));
  if (!config.trace) {
    report->Put("setup_s", Median(setup_s), "s");
    return;
  }
  const double mcells = static_cast<double>(first.cells) / 1e6;
  report->Put("core.ingest_mcells_s", Median(rates), "Mcells/s");
  report->Put("storage.block_writes_per_mcell",
              static_cast<double>(first.io.block_writes) / mcells, "count");
  report->Put("storage.journal_commits",
              static_cast<double>(first.journal_commits), "count");
  report->Put("storage.close_ms", first.close_s * 1e3, "ms");
  report->Put("tile.coeff_writes_per_cell",
              static_cast<double>(first.io.coeff_writes) /
                  static_cast<double>(first.cells),
              "count");
}

// ---------------------------------------------------------------------------
// The network rig: a served cube behind an in-process CubeServer and the
// pipelined generator's connections.

struct NetRig {
  std::shared_ptr<ServingCube> mono;
  std::shared_ptr<ShardedCube> sharded;
  std::shared_ptr<net::CubeRegistry> registry;
  std::unique_ptr<net::CubeServer> server;
  std::unique_ptr<PipelinedLoad> load;
  BuiltStore built;

  void Serve(std::shared_ptr<net::ServeHandle> handle, Tracer* tracer) {
    ScopedSpan span(tracer, "net.server_start");
    registry = std::make_shared<net::CubeRegistry>();
    Check(registry->Insert("bench", std::move(handle)), "register cube");
    net::CubeServer::Options options;
    options.num_threads = kServerLoops;
    server = std::make_unique<net::CubeServer>(registry, options);
    Check(server->Start(), "start server");
    load = std::make_unique<PipelinedLoad>(server->port(), kConnections,
                                           "bench");
    load->Connect();
  }

  /// Applies every buffered delta, so the next step starts from the same
  /// empty buffer whatever the step before it left behind (an overloaded
  /// trial can leave thousands of deltas to drain).
  void Quiesce() {
    Check(mono ? mono->DrainAll() : sharded->DrainAll(), "drain");
  }

  /// Stops the server and closes the cube; idempotent.
  void Shutdown() {
    load.reset();
    if (server) server->Stop();
    server.reset();
    Status status;
    if (mono) status = mono->Close();
    if (sharded) status = sharded->Close();
    mono.reset();
    sharded.reset();
    registry.reset();
    Check(status, "close served cube");
  }

  ~NetRig() {
    try {
      Shutdown();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "teardown: %s\n", e.what());
    }
  }
};

std::unique_ptr<NetRig> SetupReadHot(const std::string& dir, uint64_t seed,
                                     Tracer* tracer) {
  ScopedSpan span(tracer, "bench.setup");
  auto rig = std::make_unique<NetRig>();
  rig->built = BuildMonolith(dir, kNetDims, kIngestPool, seed, tracer);
  // The pool holds every block (plus the serving layer's meta block), and
  // every block is loaded before the first request.
  const uint64_t pool = rig->built.num_blocks + 16;
  {
    ScopedSpan open(tracer, "service.open");
    rig->mono = Check(ServingCube::OpenOnDisk(dir, pool, {}), "open serving");
  }
  {
    ScopedSpan warm(tracer, "tile.warm");
    TiledStore* store = rig->mono->cube()->store();
    for (uint64_t b = 0; b < rig->built.num_blocks; ++b) {
      Check(store->GetAt({b, 0}).status(), "warm block");
    }
  }
  rig->Serve(net::ServeHandle::Wrap(rig->mono), tracer);
  return rig;
}

std::unique_ptr<NetRig> SetupWriteMixed(const std::string& dir, uint64_t seed,
                                        Tracer* tracer) {
  ScopedSpan span(tracer, "bench.setup");
  auto rig = std::make_unique<NetRig>();
  rig->built = BuildSharded(dir, kNetDims, kIngestPool, seed, tracer);
  {
    ScopedSpan open(tracer, "service.open");
    ShardedCube::Options options;
    options.serving.durable_acks = true;
    options.pool_blocks_per_shard = kIngestPool;
    rig->sharded =
        Check(ShardedCube::OpenOnDisk(dir, options), "open sharded");
  }
  rig->Serve(net::ServeHandle::Wrap(rig->sharded), tracer);
  return rig;
}

// Runs the setup kNetSetupRepeats times (once when tracing), keeping the
// last rig; earlier rigs are torn down and their stores deleted.
template <typename SetupFn>
std::unique_ptr<NetRig> RepeatSetup(const Config& config, Report* report,
                                    Tracer* tracer, const SetupFn& setup,
                                    std::string* dir_out) {
  const int repeats = config.trace ? 1 : kNetSetupRepeats;
  std::vector<double> setup_s;
  std::vector<BuiltStore> builds;
  std::unique_ptr<NetRig> rig;
  for (int r = 0; r < repeats; ++r) {
    if (rig) rig->Shutdown();
    rig.reset();
    const std::string dir =
        (fs::path(config.data_dir) / ("store" + std::to_string(r))).string();
    if (r > 0) fs::remove_all(*dir_out);
    const uint64_t t0 = NowNs();
    rig = setup(dir, config.seed, tracer);
    setup_s.push_back(Seconds(t0, NowNs()));
    builds.push_back(rig->built);
    *dir_out = dir;
  }
  ReportSetup(config, setup_s, builds, report);
  return rig;
}

struct NetPlan {
  Mix mix;
  double fixed_rate = 0.0;
  double floor = 0.0;    ///< lowest rate the staircase tries
  double ceiling = 0.0;  ///< highest rate the staircase tries
  double p99_limit_us = 0.0;
};

// The measured phase is kRounds rounds, each a fixed-rate slice, a
// closed-loop throughput window and kTrialsPerRound trials of the
// staircase, whose steps end at kMinStep.
constexpr int kRounds = 9;
constexpr int kTrialsPerRound = 3;
const double kMinStep = std::pow(2.0, 1.0 / 16.0);  // about 4.4%
// Requests a throughput window keeps in flight: many round trips' worth at
// any rate the server reaches, yet a queue that drains well within the
// latency limit. A window's operations are generated for kClosedOpsPerS;
// a server faster than that ends the window early, which leaves its rate
// (completions over elapsed time) correct.
constexpr size_t kClosedDepth = 64;
constexpr double kClosedOpsPerS = 150000;

/// One kind's latency median in each fixed-rate slice, with the host steal
/// during the slice.
struct SliceMedians {
  std::vector<double> p50_us;
  std::vector<double> steal_pct;
};

struct NetResult {
  LoadStep fixed;   ///< fixed-rate slices, tracing off
  LoadStep traced;  ///< the same slices replayed with tracing on
  SliceMedians slice_p50[kOpKinds];         ///< untraced, by kind
  SliceMedians traced_slice_p50[kOpKinds];  ///< traced, by kind
  /// (operation, value) of sampled successful replies, for answer checks.
  std::vector<std::pair<Op, double>> answers;
  double knee = 0.0;               ///< staircase estimate of the p99 knee
  std::vector<double> throughput;  ///< completions/s of each window
  std::vector<double> throughput_steal_pct;  ///< host steal in each window
  uint64_t throughput_attempted = 0;
  uint64_t throughput_failed = 0;
  uint64_t acked_adds = 0;
  /// Server-side point latency histogram over the untraced fixed slices.
  std::array<uint64_t, net::kLatencyBuckets> point_histogram{};
};

// One open-loop step at `rate`; every `sample_stride`-th reply (0: none)
// is kept in `result` for the answer checks.
LoadStep RunSchedule(NetRig* rig, const NetPlan& plan, uint64_t seed,
                     double rate, double duration_s, uint32_t deadline_ms,
                     uint32_t sample_stride, Tracer* tracer,
                     NetResult* result) {
  const auto schedule = PoissonSchedule(seed, rate, duration_s);
  const std::vector<Op> ops = MakeOps(seed ^ 0x0ffull, kNetDims, plan.mix,
                                      schedule.size());
  StepPlan step;
  step.duration_s = duration_s;
  step.deadline_ms = deadline_ms;
  step.sample_stride = sample_stride;
  rig->Quiesce();
  LoadStep out = rig->load->RunStep(ops, schedule, step, tracer);
  for (const auto& [index, value] : out.sampled) {
    result->answers.emplace_back(ops[index], value);
  }
  result->acked_adds += out.acked_adds;
  return out;
}

// CPU time of all CPUs, in jiffies from /proc/stat: what the hypervisor
// gave to other guests (steal) and the total; zeros where unreadable.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;
};

HostCpu ReadHostCpu() {
  HostCpu out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long t[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                  &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) == 8) {
    for (const unsigned long long v : t) out.total += static_cast<double>(v);
    out.steal = static_cast<double>(t[7]);
  }
  std::fclose(f);
  return out;
}

// Host steal between two readings, in percent of all CPU time.
double StealPct(const HostCpu& before, const HostCpu& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? 100.0 * (after.steal - before.steal) / total : 0.0;
}

// Appends each kind's median latency in `step`, for kinds it has, with the
// slice's host steal.
void AddSliceMedians(const LoadStep& step, double steal_pct,
                     SliceMedians (&medians)[kOpKinds]) {
  for (int k = 0; k < kOpKinds; ++k) {
    if (!step.latency_us[k].empty()) {
      medians[k].p50_us.push_back(Summarize(step.latency_us[k]).p50);
      medians[k].steal_pct.push_back(steal_pct);
    }
  }
}

// The per-slice medians and steal, by kind, for the diagnostics.
std::string SliceJson(const SliceMedians (&medians)[kOpKinds]) {
  Json out;
  for (int k = 0; k < kOpKinds; ++k) {
    if (medians[k].p50_us.empty()) continue;
    Json kind;
    kind.Raw("p50_us", JsonList(medians[k].p50_us))
        .Raw("steal_pct", JsonList(medians[k].steal_pct));
    out.Raw(OpKindName(static_cast<OpKind>(k)), kind.Dump());
  }
  return out.Dump();
}

// One closed-loop throughput window: kClosedDepth requests in flight for
// `duration_s`; records the completions per second of elapsed time.
void RunThroughputWindow(NetRig* rig, const NetPlan& plan, uint64_t seed,
                         double duration_s, NetResult* result) {
  const std::vector<Op> ops =
      MakeOps(seed ^ 0x0ffull, kNetDims, plan.mix,
              static_cast<size_t>(kClosedOpsPerS * duration_s));
  StepPlan step;
  step.duration_s = duration_s;
  step.closed_depth = kClosedDepth;
  rig->Quiesce();
  Tracer off(false);
  const HostCpu before = ReadHostCpu();
  const LoadStep out = rig->load->RunStep(ops, {}, step, &off);
  result->throughput_steal_pct.push_back(StealPct(before, ReadHostCpu()));
  result->throughput.push_back(static_cast<double>(out.stats.completed) /
                               out.stats.elapsed_s);
  result->throughput_attempted += out.stats.scheduled;
  result->throughput_failed += out.stats.failed;
  result->acked_adds += out.acked_adds;
}

// The measured phase of a network workload. After a short warm-up, each
// round runs a slice of the fixed-rate step, a throughput window and a few
// trials of the staircase search for the p99 knee, so a passing
// disturbance on the host spreads over all three instead of landing on
// one. Traced runs skip the windows and the search and follow each
// untraced slice with the same slice (same schedule, same operations)
// traced.
NetResult MeasureNet(const Config& config, const NetPlan& plan, NetRig* rig,
                     Report* report, Tracer* tracer) {
  NetResult out;
  Tracer off(false);
  const double warm_s = 0.05 * config.seconds;
  const double slice_s = 0.3 * config.seconds / kRounds;
  const double window_s = 0.2 * config.seconds / kRounds;
  const double trial_s = 0.37 * config.seconds / (kRounds * kTrialsPerRound);
  const uint64_t seed = config.seed * 1000003ull;

  RunSchedule(rig, plan, seed + 1, plan.fixed_rate, warm_s, 0, 0, &off, &out);
  int slice = 0;
  auto fixed_slice = [&] {
    const uint64_t slice_seed = seed + 2 + slice++;
    const net::ServerStats before = rig->server->stats();
    HostCpu cpu = ReadHostCpu();
    const LoadStep plain = RunSchedule(rig, plan, slice_seed, plan.fixed_rate,
                                       slice_s, 0, 16, &off, &out);
    HostCpu cpu_after = ReadHostCpu();
    AddPointLatencies(before, rig->server->stats(), &out.point_histogram);
    AddSliceMedians(plain, StealPct(cpu, cpu_after), out.slice_p50);
    Append(&out.fixed, plain);
    if (config.trace) {
      ScopedSpan span(tracer, "bench.fixed_slice_traced");
      cpu = ReadHostCpu();
      const LoadStep traced = RunSchedule(
          rig, plan, slice_seed, plan.fixed_rate, slice_s, 0, 16, tracer, &out);
      cpu_after = ReadHostCpu();
      AddSliceMedians(traced, StealPct(cpu, cpu_after), out.traced_slice_p50);
      Append(&out.traced, traced);
    }
  };
  if (config.trace) {
    for (int i = 0; i < kRounds; ++i) fixed_slice();
    return out;
  }

  // A trial is one open-loop window. Its requests carry a deadline of
  // twice the limit, so an overloaded trial sheds instead of queueing into
  // the next one.
  const uint32_t deadline_ms =
      static_cast<uint32_t>(2 * plan.p99_limit_us / 1000);
  StepLimits limits;
  limits.p99_limit_us = plan.p99_limit_us;
  // The generator may run late by up to half the latency limit before a
  // trial stops counting: lateness is already inside every latency, which
  // is timed from the scheduled send.
  limits.lag_budget_us = plan.p99_limit_us / 2;
  Staircase staircase(plan.floor, plan.ceiling, kMinStep);
  std::string rows = "[";
  int trial = 0;
  for (int r = 0; r < kRounds; ++r) {
    fixed_slice();
    RunThroughputWindow(rig, plan, seed + 500 + r, window_s, &out);
    for (int t = 0; t < kTrialsPerRound; ++t) {
      const double rate = staircase.Next();
      const LoadStep step = RunSchedule(rig, plan, seed + 100 + trial, rate,
                                        trial_s, deadline_ms, 0, &off, &out);
      const bool meets = StepMeets(step.stats, limits);
      staircase.Record(meets, step.stats.offered_per_s);
      Json row;
      row.Num("offered_ops_s", step.stats.offered_per_s)
          .Num("achieved_over_offered", AchievedOverOffered(step.stats))
          .Num("p99_us", step.stats.p99_us)
          .Num("lag_p99_us", step.stats.lag_p99_us)
          .Num("failed", static_cast<double>(step.stats.failed))
          .Num("inflight_first_half", step.stats.inflight_first_half)
          .Num("inflight_second_half", step.stats.inflight_second_half)
          .Num("meets", meets ? 1 : 0);
      rows += (trial++ ? ", " : "") + row.Dump();
    }
  }
  out.knee = staircase.Estimate();
  report->diag.Raw("rate_search", rows + "]");
  Json windows;
  windows.Raw("ops_s", JsonList(out.throughput))
      .Raw("steal_pct", JsonList(out.throughput_steal_pct));
  report->diag.Raw("throughput_windows", windows.Dump());
  return out;
}

// Latency metrics shared by every workload: the untraced phase gives the
// end-to-end medians; in traced runs the traced phase's medians minus those
// are the tracing overhead. Per-kind tails go to the diagnostics.
void ReportLatency(const Config& config, const Mix& mix,
                   const TailSummary (&plain)[kOpKinds],
                   const TailSummary (&traced)[kOpKinds], Report* report) {
  Json tails;
  for (int k = 0; k < kOpKinds; ++k) {
    tails.Raw(std::string(OpKindName(static_cast<OpKind>(k))),
              TailJson(plain[k]));
  }
  report->diag.Raw("latency_us", tails.Dump());
  constexpr int kPoint = static_cast<int>(OpKind::kPoint);
  const double point_p50 = plain[kPoint].p50;
  const double mix_p50 = MixP50(mix, plain);
  if (!config.trace) {
    report->Put("point_p50_us", point_p50, "us");
    report->Put("mix_p50_us", mix_p50, "us");
    return;
  }
  report->Put("trace.overhead_point_p50_us", traced[kPoint].p50 - point_p50,
              "us");
  report->Put("trace.overhead_mix_p50_us", MixP50(mix, traced) - mix_p50,
              "us");
}

// Metrics of a network workload, plus the count of attempted and failed
// requests of its fixed-rate step(s).
void ReportNet(const Config& config, const NetPlan& plan,
               const NetResult& result, Report* report) {
  const LoadStep& f = result.fixed;
  for (const LoadStep* step : {&result.fixed, &result.traced}) {
    report->attempted += step->stats.scheduled;
    report->failed += step->stats.failed;
  }
  report->attempted += result.throughput_attempted;
  report->failed += result.throughput_failed;
  if (f.stats.failed != 0 || result.traced.stats.failed != 0) {
    report->Fail("fixed-rate step had failed requests");
  }
  if (result.throughput_failed != 0) {
    report->Fail("throughput windows had failed requests");
  }
  Json gen;
  gen.Num("offered_ops_s", f.stats.offered_per_s)
      .Num("achieved_over_offered", AchievedOverOffered(f.stats))
      .Num("lag_p99_us", f.stats.lag_p99_us)
      .Num("max_inflight", static_cast<double>(f.max_inflight))
      .Num("busy_us_per_request", f.busy_us_per_request);
  report->diag.Raw("generator", gen.Dump());
  TailSummary plain[kOpKinds];
  TailSummary traced[kOpKinds];
  for (int k = 0; k < kOpKinds; ++k) {
    plain[k] = Summarize(f.latency_us[k]);
    traced[k] = Summarize(result.traced.latency_us[k]);
    // The medians are the calm median of the slices' medians: the host
    // running slow for a stretch of the run moves them only when it took
    // CPU time from most of the slices. The tails stay those of all
    // samples together.
    plain[k].p50 = CalmMedian(result.slice_p50[k].p50_us,
                              result.slice_p50[k].steal_pct);
    traced[k].p50 = CalmMedian(result.traced_slice_p50[k].p50_us,
                               result.traced_slice_p50[k].steal_pct);
  }
  report->diag.Raw("fixed_slices", SliceJson(result.slice_p50));
  ReportLatency(config, plan.mix, plain, traced, report);
  if (!config.trace) {
    report->Put("throughput_ops_s",
                CalmMedian(result.throughput, result.throughput_steal_pct),
                "ops/s");
    report->diag.Num("knee_ops_s", result.knee);
    return;
  }
  report->Put("gen.lag_p99_us", f.stats.lag_p99_us, "us");
  report->Put("gen.achieved_over_offered", AchievedOverOffered(f.stats),
              "ratio");
  report->Put("gen.max_inflight", static_cast<double>(f.max_inflight),
              "count");
  report->Put("gen.busy_us_per_request", f.busy_us_per_request, "us");
}

// Served-path counters for the per-layer report.
ServedLayerStats ServedStats(const ServingStats& s, const NetResult& r,
                             const net::ServerStats& server) {
  ServedLayerStats out;
  out.present = true;
  out.overlay_hit_rate =
      s.overlay_probes == 0
          ? 0.0
          : static_cast<double>(s.overlay_hits) /
                static_cast<double>(s.overlay_probes);
  uint64_t reads = 0;
  for (const LoadStep* step : {&r.fixed, &r.traced}) {
    reads += step->latency_us[static_cast<int>(OpKind::kPoint)].size() +
             step->latency_us[static_cast<int>(OpKind::kRange)].size();
  }
  out.latch_wait_us_per_read =
      reads == 0 ? 0.0
                 : static_cast<double>(s.latch_wait_us_total) /
                       static_cast<double>(reads);
  out.latch_hold_us_max = static_cast<double>(s.latch_hold_us_max);
  out.deltas_per_log_sync =
      s.log_syncs == 0 ? 0.0
                       : static_cast<double>(s.log_appends) /
                             static_cast<double>(s.log_syncs);
  out.deltas_per_drain_batch =
      s.apply_batches == 0 ? 0.0
                           : static_cast<double>(s.applied_deltas) /
                                 static_cast<double>(s.apply_batches);
  out.stall_us = static_cast<double>(s.stall_us);
  out.rejected_unavailable = static_cast<double>(s.rejected_unavailable);
  out.server_time_us =
      static_cast<double>(HistogramMedianUs(r.point_histogram));
  out.rejected_at_admission = static_cast<double>(server.rejected_at_admission);
  out.deadline_expired_before_dispatch =
      static_cast<double>(server.deadline_expired_before_dispatch);
  return out;
}

LadderInput LadderSample(const std::vector<uint32_t>& dims, bool zipf) {
  LadderInput in;
  in.points = MakeOps(kLadderSeed, dims, Mix{1, 0, 0, zipf}, 2000);
  in.ranges = MakeOps(kLadderSeed + 1, dims, Mix{0, 1, 0, false}, 300);
  return in;
}

}  // namespace

// ---------------------------------------------------------------------------
// net_read_hot

void RunNetReadHot(const Config& config, Report* report, Tracer* tracer) {
  std::string dir;
  auto rig = RepeatSetup(config, report, tracer, SetupReadHot, &dir);
  const uint64_t num_blocks = rig->built.num_blocks;
  report->stamp.Num("pool_blocks", static_cast<double>(num_blocks + 16));
  NetPlan plan;
  plan.mix = Mix{1, 0, 0, true};
  plan.fixed_rate = 20000;
  plan.floor = 16000;
  plan.ceiling = 512000;
  plan.p99_limit_us = 5000;
  report->stamp.Num("p99_limit_us", plan.p99_limit_us);
  const NetResult result = MeasureNet(config, plan, rig.get(), report, tracer);
  const ServingStats serving = rig->mono->stats();
  const net::ServerStats server = rig->server->stats();
  rig->Shutdown();
  rig.reset();
  ReportNet(config, plan, result, report);

  // Answer checks: sampled TCP answers against the in-process cube on the
  // same store, bit for bit; then the paper bounds.
  {
    auto cube = Check(WaveletCube::OpenOnDisk(dir, num_blocks + 16),
                      "reopen store");
    uint64_t bad = 0;
    for (const auto& [op, value] : result.answers) {
      const double expected = Check(cube->PointQuery(op.a), "in-process point");
      if (std::bit_cast<uint64_t>(expected) != std::bit_cast<uint64_t>(value)) {
        ++bad;
      }
    }
    const uint64_t checked = result.answers.size();
    report->attempted += checked;
    report->failed += bad;
    if (bad != 0) {
      report->Fail(std::to_string(bad) + " of " + std::to_string(checked) +
                   " sampled TCP answers differ from in-process answers");
    }
    report->diag.Num("answers_checked", static_cast<double>(checked));
    CheckPaperBounds(cube.get(), kNetDims, config.seed, report);
    Check(cube->Close(), "close store");
  }
  if (!config.trace) return;
  LadderInput ladder = LadderSample(kNetDims, true);
  ladder.mono_dir = dir;
  ladder.sharded_dir = (fs::path(config.data_dir) / "ladder_sharded").string();
  ladder.mono_pool = num_blocks + 16;
  ladder.shard_pool = num_blocks / kShards + 16;
  ladder.warm = true;
  {
    ScopedSpan span(tracer, "bench.ladder_setup");
    BuildSharded(ladder.sharded_dir, kNetDims, kIngestPool, config.seed,
                 tracer);
  }
  ladder.served = ServedStats(serving, result, server);
  ladder.client_point_p50_us =
      Summarize(result.fixed.latency_us[static_cast<int>(OpKind::kPoint)]).p50;
  RunLadder(ladder, report, tracer);
}

// ---------------------------------------------------------------------------
// net_write_mixed

void RunNetWriteMixed(const Config& config, Report* report, Tracer* tracer) {
  std::string dir;
  auto rig = RepeatSetup(config, report, tracer, SetupWriteMixed, &dir);
  report->stamp.Num("pool_blocks", static_cast<double>(kIngestPool * kShards));
  // The initial whole-domain sum, by direct summation of the dataset.
  const uint64_t n = uint64_t{1} << kNetDims[0];
  const double initial = DirectSum(config.seed, {0, 0}, {n - 1, n - 1});
  NetPlan plan;
  plan.mix = Mix{0.45, 0.05, 0.5, true};
  plan.fixed_rate = 2000;
  plan.floor = 2000;
  plan.ceiling = 64000;
  plan.p99_limit_us = 25000;
  report->stamp.Num("p99_limit_us", plan.p99_limit_us);
  const NetResult result = MeasureNet(config, plan, rig.get(), report, tracer);
  const net::ServerStats server = rig->server->stats();

  // Answer checks, with the server still up: after a full drain the
  // whole-domain sum equals the initial sum plus 0.25 per acked Add,
  // exactly, in process and over TCP; sampled points agree bit for bit.
  uint64_t checks = 0;
  uint64_t bad = 0;
  {
    Check(rig->sharded->DrainAll(), "drain");
    const std::vector<uint64_t> lo = {0, 0};
    const std::vector<uint64_t> hi = {n - 1, n - 1};
    const double expected =
        initial + kAddDelta * static_cast<double>(result.acked_adds);
    const double in_process = Check(rig->sharded->RangeSum(lo, hi), "sum");
    net::CubeClient client("127.0.0.1", rig->server->port());
    const double over_tcp = Check(client.Sum("bench", lo, hi), "tcp sum");
    checks += 2;
    if (in_process != expected || over_tcp != expected) {
      ++bad;
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "whole-domain sum %.17g (tcp %.17g) != initial %.17g + "
                    "0.25 x %" PRIu64 " acked adds",
                    in_process, over_tcp, initial, result.acked_adds);
      report->Fail(buf);
    }
    const auto points =
        MakeOps(config.seed ^ 0xc4ecull, kNetDims, Mix{1, 0, 0, true}, 256);
    for (const Op& op : points) {
      const double local = Check(rig->sharded->PointQuery(op.a), "point");
      const double remote = Check(client.Point("bench", op.a), "tcp point");
      ++checks;
      if (std::bit_cast<uint64_t>(local) != std::bit_cast<uint64_t>(remote)) {
        ++bad;
      }
    }
    if (bad != 0) {
      report->Fail(std::to_string(bad) + " of " + std::to_string(checks) +
                   " after-drain checks failed");
    }
    report->diag.Num("acked_adds", static_cast<double>(result.acked_adds));
    report->diag.Num("answers_checked", static_cast<double>(checks));
  }
  report->attempted += checks;
  report->failed += bad;
  const ServingStats serving = rig->sharded->stats();
  rig->Shutdown();
  rig.reset();
  ReportNet(config, plan, result, report);
  {
    std::vector<uint32_t> shard_dims = kNetDims;
    shard_dims[0] -= std::countr_zero(kShards);
    auto cube = Check(WaveletCube::OpenOnDisk(ShardDir(dir, 0), kIngestPool),
                      "reopen shard");
    CheckPaperBounds(cube.get(), shard_dims, config.seed, report);
    Check(cube->Close(), "close shard");
  }
  if (!config.trace) return;
  LadderInput ladder = LadderSample(kNetDims, true);
  ladder.sharded_dir = dir;
  ladder.mono_dir = (fs::path(config.data_dir) / "ladder_mono").string();
  ladder.mono_pool = kIngestPool * kShards;
  ladder.shard_pool = kIngestPool;
  {
    ScopedSpan span(tracer, "bench.ladder_setup");
    BuildMonolith(ladder.mono_dir, kNetDims, kIngestPool, config.seed, tracer);
  }
  ladder.served = ServedStats(serving, result, server);
  ladder.client_point_p50_us =
      Summarize(result.fixed.latency_us[static_cast<int>(OpKind::kPoint)]).p50;
  RunLadder(ladder, report, tracer);
}

// ---------------------------------------------------------------------------
// local_olap_cold

void RunLocalOlapCold(const Config& config, Report* report, Tracer* tracer) {
  const int repeats = config.trace ? 1 : kLocalSetupRepeats;
  std::vector<double> setup_s;
  std::vector<BuiltStore> builds;
  std::unique_ptr<WaveletCube> cube;
  std::string dir;
  for (int r = 0; r < repeats; ++r) {
    if (cube) Check(cube->Close(), "close store");
    cube.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = (fs::path(config.data_dir) / ("store" + std::to_string(r))).string();
    ScopedSpan span(tracer, "bench.setup");
    const uint64_t t0 = NowNs();
    builds.push_back(
        BuildMonolith(dir, kLocalDims, kIngestPool, config.seed, tracer));
    {
      ScopedSpan open(tracer, "core.open");
      cube = Check(WaveletCube::OpenOnDisk(dir, kIngestPool), "reopen store");
    }
    setup_s.push_back(Seconds(t0, NowNs()));
  }
  ReportSetup(config, setup_s, builds, report);
  report->stamp.Num("pool_blocks", static_cast<double>(kIngestPool));

  // Phase B: one caller, closed loop, uniform points and ranges half and
  // half, in kRounds slices so that the metrics can be calm medians over
  // them, as on the network workloads. Traced runs time a first phase
  // untraced and a second one, with the same operations, traced.
  struct Phase {
    LatencyHistogram latency_us[kOpKinds];  ///< every slice
    uint64_t ops = 0;
    double elapsed_s = 0.0;
    double cpu_us = 0.0;
    std::vector<std::pair<Op, double>> sampled;
    SliceMedians slice_p50[kOpKinds];
    std::vector<double> slice_ops_s;
    std::vector<double> slice_steal_pct;
  };
  auto run_slice = [&](Phase* phase, uint64_t seed, double seconds,
                       Tracer* t) {
    LatencyHistogram slice_us[kOpKinds];
    uint64_t ops = 0;
    OpStream stream(seed, kLocalDims, kLocalMix);
    Op op;
    const HostCpu cpu = ReadHostCpu();
    timespec c0{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c0);
    const uint64_t start = NowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    uint64_t now = start;
    while (now < end) {
      stream.Next(&op);
      const int kind = static_cast<int>(op.kind);
      double value = 0.0;
      const int64_t span = t->Begin("bench.op", phase->ops);
      const uint64_t t0 = NowNs();
      if (op.kind == OpKind::kPoint) {
        ScopedSpan s(t, "core.point_query", phase->ops);
        value = Check(cube->PointQuery(op.a), "point query");
      } else {
        ScopedSpan s(t, "core.range_sum", phase->ops);
        value = Check(cube->RangeSum(op.a, op.b), "range sum");
      }
      now = NowNs();
      t->End(span);
      const double us = static_cast<double>(now - t0) / 1e3;
      phase->latency_us[kind].Add(us);
      slice_us[kind].Add(us);
      if (phase->ops % 1024 == 0) phase->sampled.emplace_back(op, value);
      ++phase->ops;
      ++ops;
    }
    timespec c1{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c1);
    const double steal_pct = StealPct(cpu, ReadHostCpu());
    const double elapsed_s = Seconds(start, now);
    phase->elapsed_s += elapsed_s;
    phase->cpu_us += static_cast<double>(c1.tv_sec - c0.tv_sec) * 1e6 +
                     static_cast<double>(c1.tv_nsec - c0.tv_nsec) / 1e3;
    phase->slice_ops_s.push_back(static_cast<double>(ops) / elapsed_s);
    phase->slice_steal_pct.push_back(steal_pct);
    for (int k = 0; k < kOpKinds; ++k) {
      if (slice_us[k].count() == 0) continue;
      phase->slice_p50[k].p50_us.push_back(Summarize(slice_us[k]).p50);
      phase->slice_p50[k].steal_pct.push_back(steal_pct);
    }
  };
  Tracer off(false);
  const uint64_t seed = config.seed * 7919;
  // A tenth of the time warms the loop up unmeasured.
  {
    Phase warm;
    run_slice(&warm, seed, 0.1 * config.seconds, &off);
  }
  const double slice_s = (config.trace ? 0.3 : 0.9) * config.seconds / kRounds;
  Phase phase;
  for (int r = 0; r < kRounds; ++r) {
    run_slice(&phase, seed + 1 + r, slice_s, &off);
  }
  Phase traced;
  if (config.trace) {
    ScopedSpan span(tracer, "bench.phase_traced");
    for (int r = 0; r < kRounds; ++r) {
      run_slice(&traced, seed + 1 + r, slice_s, tracer);
    }
  }

  // Answer checks against direct summation of the dataset (relative
  // tolerance 1e-9; the quarter-integer data makes most answers exact).
  uint64_t bad = 0;
  uint64_t checked = 0;
  for (const Phase* p : {&phase, &traced}) {
    for (const auto& [op, value] : p->sampled) {
      const double expected =
          op.kind == OpKind::kPoint
              ? CellValue(config.seed, op.a[0], op.a[1])
              : DirectSum(config.seed, op.a, op.b);
      ++checked;
      const double tolerance = 1e-9 * std::max(1.0, std::fabs(expected));
      if (std::fabs(value - expected) > tolerance) ++bad;
    }
  }
  report->attempted += phase.ops + traced.ops;
  report->failed += bad;
  if (bad != 0) {
    report->Fail(std::to_string(bad) + " of " + std::to_string(checked) +
                 " sampled answers differ from direct summation");
  }
  report->diag.Num("answers_checked", static_cast<double>(checked));
  CheckPaperBounds(cube.get(), kLocalDims, config.seed, report);
  Check(cube->Close(), "close store");
  cube.reset();

  TailSummary plain[kOpKinds];
  TailSummary traced_summary[kOpKinds];
  for (int k = 0; k < kOpKinds; ++k) {
    plain[k] = Summarize(phase.latency_us[k]);
    traced_summary[k] = Summarize(traced.latency_us[k]);
    plain[k].p50 = CalmMedian(phase.slice_p50[k].p50_us,
                              phase.slice_p50[k].steal_pct);
    traced_summary[k].p50 = CalmMedian(traced.slice_p50[k].p50_us,
                                       traced.slice_p50[k].steal_pct);
  }
  ReportLatency(config, kLocalMix, plain, traced_summary, report);
  report->diag.Raw("slices", SliceJson(phase.slice_p50));
  Json slices;
  slices.Raw("ops_s", JsonList(phase.slice_ops_s))
      .Raw("steal_pct", JsonList(phase.slice_steal_pct));
  report->diag.Raw("slice_throughput", slices.Dump());
  report->diag.Num("query_ops_s",
                   static_cast<double>(phase.ops) / phase.elapsed_s);
  if (!config.trace) {
    report->Put("throughput_ops_s",
                CalmMedian(phase.slice_ops_s, phase.slice_steal_pct),
                "ops/s");
    return;
  }
  // A closed loop has no schedule: no lag, and it achieves what it offers.
  report->Put("gen.lag_p99_us", 0.0, "us");
  report->Put("gen.achieved_over_offered", 1.0, "ratio");
  report->Put("gen.max_inflight", 1.0, "count");
  // The closed-loop caller never waits, so its CPU time is its busy time.
  report->Put("gen.busy_us_per_request",
              phase.cpu_us /
                  static_cast<double>(std::max<uint64_t>(phase.ops, 1)),
              "us");

  LadderInput ladder = LadderSample(kLocalDims, false);
  ladder.mono_dir = dir;
  ladder.sharded_dir = (fs::path(config.data_dir) / "ladder_sharded").string();
  ladder.mono_pool = kIngestPool;
  ladder.shard_pool = kIngestPool;
  {
    ScopedSpan span(tracer, "bench.ladder_setup");
    BuildSharded(ladder.sharded_dir, kLocalDims, kIngestPool, config.seed,
                 tracer);
  }
  RunLadder(ladder, report, tracer);
}

void AddPointLatencies(const net::ServerStats& before,
                       const net::ServerStats& after,
                       std::array<uint64_t, net::kLatencyBuckets>* histogram) {
  const size_t op = static_cast<size_t>(net::TrackedOp::kPoint);
  for (size_t b = 0; b < net::kLatencyBuckets; ++b) {
    (*histogram)[b] += after.latency[op][b] - before.latency[op][b];
  }
}

uint64_t HistogramMedianUs(
    const std::array<uint64_t, net::kLatencyBuckets>& histogram) {
  uint64_t total = 0;
  for (const uint64_t n : histogram) total += n;
  uint64_t seen = 0;
  for (size_t i = 0; i < net::kLatencyBuckets; ++i) {
    seen += histogram[i];
    if (total != 0 && 2 * seen >= total) {
      // The last bucket is unbounded: report twice the last bound.
      const size_t bounds = std::size(net::kLatencyBucketUs);
      return i < bounds ? net::kLatencyBucketUs[i]
                        : 2 * net::kLatencyBucketUs[bounds - 1];
    }
  }
  return 0;
}

// Block reads of one point query started from an empty pool: Lemma 1 with
// scaling slots makes it exactly one.
uint64_t ColdPointBlockReads(WaveletCube* cube, const Op& op) {
  Check(cube->store()->pool().Clear(), "clear pool");
  const uint64_t before = cube->stats().block_reads;
  Check(cube->PointQuery(op.a).status(), "bound-check point");
  return cube->stats().block_reads - before;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
