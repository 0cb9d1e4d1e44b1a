// The layer ladder: one fixed seeded sample of a workload's reads replayed
// through each layer from the bottom up — kernel, block device, tile store
// and buffer pool, WaveletCube, ServingCube (0 and 200 pending deltas),
// ShardedCube, wire codec, TCP ping, TCP point — with a span per call. The
// cost of a rung minus the cost of the rung below is what that layer adds.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/kernels/kernels.h"
#include "shiftsplit/net/cube_client.h"
#include "shiftsplit/net/cube_registry.h"
#include "shiftsplit/net/cube_server.h"
#include "shiftsplit/net/wire.h"
#include "shiftsplit/service/serving_cube.h"
#include "shiftsplit/service/sharded_cube.h"
#include "shiftsplit/storage/file_block_manager.h"
#include "workloads.h"

namespace perfbench {

using namespace shiftsplit;
namespace fs = std::filesystem;

namespace {

// Times `fn(i)` for every i in [0, n) under a span named `name` (request
// id i) and returns the median in microseconds.
template <typename Fn>
double TimeEach(Tracer* tracer, const char* name, size_t n, const Fn& fn) {
  std::vector<double> us;
  us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t span = tracer->Begin(name, i);
    const uint64_t t0 = NowNs();
    fn(i);
    const uint64_t t1 = NowNs();
    tracer->End(span);
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return Median(us);
}

// Throughput of a kernel in units per second: runs `fn` (which processes
// `units` items) `reps` times and returns units * reps / elapsed.
template <typename Fn>
double Throughput(Tracer* tracer, const char* name, double units, int reps,
                  const Fn& fn) {
  ScopedSpan span(tracer, name);
  const uint64_t t0 = NowNs();
  for (int r = 0; r < reps; ++r) fn();
  const uint64_t t1 = NowNs();
  return units * reps / (static_cast<double>(t1 - t0) / 1e9);
}

// Results fold into a volatile sink so timed kernels are not optimized out.
volatile uint64_t g_sink = 0;
void Sink(uint64_t v) { g_sink = g_sink + v; }

struct Rung {
  const char* name;
  double us;
};

}  // namespace

void RunLadder(const LadderInput& in, Report* report, Tracer* tracer) {
  ScopedSpan ladder_span(tracer, "bench.ladder");
  const auto& k = kernels::Active();
  std::vector<Rung> rungs;
  const size_t np = in.points.size();
  const size_t nr = in.ranges.size();

  // Kernel rung: the checksum of one 2 KiB block, plus kernel throughputs.
  std::vector<uint8_t> block(2048);
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  report->Put("kernels.crc32c_gbps",
              Throughput(tracer, "kernels.crc32c", 2048.0, 20000,
                         [&] { Sink(k.crc32c(0, block.data(), 2048)); }) /
                  1e9,
              "GB/s");
  {
    std::vector<double> row(4096), avg(2048), det(2048);
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<double>(i % 97);
    }
    report->Put("kernels.haar_forward_mcoeff_s",
                Throughput(tracer, "kernels.haar_forward", 4096.0, 4000,
                           [&] {
                             k.haar_forward_level(row.data(), avg.data(),
                                                  det.data(), 2048, 0.5);
                             Sink(static_cast<uint64_t>(avg[1]));
                           }) /
                    1e6,
                "Mcoeff/s");
    std::vector<double> dst(256, 0.0), src(256, 0.25);
    report->Put("kernels.fold_add_mcoeff_s",
                Throughput(tracer, "kernels.fold_add", 256.0, 100000,
                           [&] {
                             k.fold_add(dst.data(), src.data(), 256);
                             Sink(static_cast<uint64_t>(dst[3]));
                           }) /
                    1e6,
                "Mcoeff/s");
  }
  rungs.push_back({"kernel_crc32c_block",
                   TimeEach(tracer, "kernels.crc32c", np, [&](size_t) {
                     Sink(k.crc32c(0, block.data(), 2048));
                   })});

  // Block-device rung: one checksummed block read at a random id.
  uint64_t num_blocks = 0;
  uint64_t block_slots = 0;
  StoreManifest manifest;
  {
    auto cube = Check(WaveletCube::OpenOnDisk(in.mono_dir, 16), "open store");
    manifest = cube->manifest();
    num_blocks = cube->store()->layout().num_blocks();
    block_slots = cube->store()->layout().block_capacity();
    Check(cube->Close(), "close store");
  }
  {
    FileBlockManager::Options options;
    options.checksums = manifest.format_version >= 2;
    options.epoch = manifest.store_epoch;
    auto device = Check(
        FileBlockManager::Open((fs::path(in.mono_dir) / "blocks.bin").string(),
                               block_slots, options),
        "open block device");
    std::vector<double> buf(block_slots);
    SeededRng rng(0xdec0de);
    std::vector<uint64_t> ids(np);
    for (auto& id : ids) id = rng.NextBounded(num_blocks);
    const double us =
        TimeEach(tracer, "storage.read_block", np, [&](size_t i) {
          Check(device->ReadBlock(ids[i], buf), "read block");
        });
    report->Put("storage.device_read_us", us, "us");
    rungs.push_back({"device_read_block", us});
  }

  // Tile-store rung and the WaveletCube rung, on the workload's pool size.
  double core_point_us = 0.0;
  {
    auto cube = Check(WaveletCube::OpenOnDisk(in.mono_dir, in.mono_pool),
                      "open store");
    TiledStore* store = cube->store();
    if (in.warm) {
      for (uint64_t b = 0; b < num_blocks; ++b) {
        Check(store->GetAt({b, 0}).status(), "warm");
      }
    }
    // Warm GetAt: the same few slots twice, the second pass timed.
    SeededRng rng(0x911e);
    std::vector<BlockSlot> slots(np);
    for (auto& s : slots) {
      s = {rng.NextBounded(std::min<uint64_t>(num_blocks, 64)),
           rng.NextBounded(block_slots)};
    }
    for (const auto& s : slots) Check(store->GetAt(s).status(), "get");
    const double getat_us =
        TimeEach(tracer, "tile.get_at", np, [&](size_t i) {
          Check(store->GetAt(slots[i]).status(), "get");
        });
    report->Put("tile.getat_ns", getat_us * 1e3, "ns");
    rungs.push_back({"tile_get_at", getat_us});

    for (const Op& op : in.points) {
      Check(cube->PointQuery(op.a).status(), "warm-up point");
    }
    const auto pool0 = cube->pool_stats();
    const IoStats io0 = cube->stats();
    core_point_us = TimeEach(tracer, "core.point_query", np, [&](size_t i) {
      Check(cube->PointQuery(in.points[i].a).status(), "point");
    });
    const auto pool1 = cube->pool_stats();
    const IoStats io1 = cube->stats();
    const double core_range_us =
        TimeEach(tracer, "core.range_sum", nr, [&](size_t i) {
          Check(cube->RangeSum(in.ranges[i].a, in.ranges[i].b).status(),
                "range");
        });
    const auto pool2 = cube->pool_stats();
    const IoStats io2 = cube->stats();
    const double queries = static_cast<double>(np + nr);
    const uint64_t hits = pool2.hits - pool0.hits;
    const uint64_t misses = pool2.misses - pool0.misses;
    report->Put("storage.block_reads_per_query",
                static_cast<double>(io2.block_reads - io0.block_reads) /
                    queries,
                "count");
    report->Put("storage.pool_hit_rate",
                hits + misses == 0
                    ? 1.0
                    : static_cast<double>(hits) /
                          static_cast<double>(hits + misses),
                "ratio");
    report->Put("storage.evictions_per_query",
                static_cast<double>(pool2.evictions - pool0.evictions) /
                    queries,
                "count");
    report->Put("tile.coeff_reads_per_range",
                static_cast<double>(io2.coeff_reads - io1.coeff_reads) /
                    static_cast<double>(nr),
                "count");
    report->Put("core.point_us", core_point_us, "us");
    report->Put("core.range_us", core_range_us, "us");
    report->Put("core.pool_fetches_per_point",
                static_cast<double>((pool1.hits + pool1.misses) -
                                    (pool0.hits + pool0.misses)) /
                    static_cast<double>(np),
                "count");
    uint64_t cold_reads = 0;
    const size_t cold_n = std::min<size_t>(np, 200);
    for (size_t i = 0; i < cold_n; ++i) {
      cold_reads += ColdPointBlockReads(cube.get(), in.points[i]);
    }
    report->Put("core.point_block_fetches",
                static_cast<double>(cold_reads) / static_cast<double>(cold_n),
                "count");
    rungs.push_back({"core_point_query", core_point_us});
    Check(cube->Close(), "close store");
  }

  // Serving rungs: the same reads through ServingCube with 0 and then 200
  // pending deltas (workers stopped, so nothing drains in between).
  ServingCube::Options serving_options;
  serving_options.start_workers = false;
  auto serving = std::shared_ptr<ServingCube>(Check(
      ServingCube::OpenOnDisk(in.mono_dir, in.mono_pool, serving_options),
      "open serving"));
  if (in.warm) {
    for (uint64_t b = 0; b < num_blocks; ++b) {
      Check(serving->cube()->store()->GetAt({b, 0}).status(), "warm");
    }
  }
  uint64_t serving_reads = 0;  // every read the serving cube answers
  auto serving_point = [&](const char* name) {
    serving_reads += 2 * np;
    for (const Op& op : in.points) {
      Check(serving->PointQuery(op.a).status(), "warm-up point");
    }
    return TimeEach(tracer, name, np, [&](size_t i) {
      Check(serving->PointQuery(in.points[i].a).status(), "serving point");
    });
  };
  const double serving0_us = serving_point("service.point_query_0");
  rungs.push_back({"serving_point_0_pending", serving0_us});
  const double add_us = TimeEach(tracer, "service.add", 200, [&](size_t i) {
    Check(serving->Add(in.points[i].a, kAddDelta), "serving add");
  });
  const double serving200_us = serving_point("service.point_query_200");
  rungs.push_back({"serving_point_200_pending", serving200_us});
  report->Put("service.point_overhead_us_0", serving0_us - core_point_us, "us");
  report->Put("service.point_overhead_us_200", serving200_us - core_point_us,
              "us");
  report->Put("service.add_ack_us", add_us, "us");

  // ShardedCube rung.
  double sharded_us = 0.0;
  {
    ShardedCube::Options options;
    options.serving.start_workers = false;
    options.supervise = false;
    options.track_energy = false;
    options.pool_blocks_per_shard = in.shard_pool;
    auto sharded = Check(ShardedCube::OpenOnDisk(in.sharded_dir, options),
                         "open sharded");
    for (const Op& op : in.points) {
      Check(sharded->PointQuery(op.a).status(), "warm-up point");
    }
    sharded_us = TimeEach(tracer, "service.sharded_point_query", np,
                          [&](size_t i) {
                            Check(sharded->PointQuery(in.points[i].a).status(),
                                  "sharded point");
                          });
    Check(sharded->Close(), "close sharded");
  }
  rungs.push_back({"sharded_point", sharded_us});
  report->Put("service.router_overhead_us", sharded_us - serving0_us, "us");

  // Wire codec rung: encode, verify and decode one point request and its
  // reply, in process.
  const double codec_us = TimeEach(tracer, "net.codec", np, [&](size_t i) {
    net::FrameHeader h;
    h.opcode = net::Opcode::kPoint;
    h.request_id = i + 1;
    const auto body = net::EncodePointRequest({"bench", in.points[i].a, 0.0});
    h.payload_len = static_cast<uint32_t>(body.size());
    const auto frame = net::EncodeFrame(h, body);
    const auto header = Check(net::DecodeHeader(frame), "decode header");
    Check(net::VerifyFrame(frame), "verify frame");
    const auto req = Check(
        net::DecodePointRequest(std::span<const uint8_t>(frame).subspan(
            net::kHeaderSize, header.payload_len)),
        "decode request");
    net::FrameHeader rh;
    rh.opcode = net::Opcode::kReply;
    rh.request_id = header.request_id;
    const auto reply_body =
        net::EncodeQueryReply(net::QueryReply::Exact(req.point[0] * 0.5));
    rh.payload_len = static_cast<uint32_t>(reply_body.size());
    const auto reply = net::EncodeFrame(rh, reply_body);
    const auto reply_header = Check(net::DecodeHeader(reply), "decode header");
    Check(net::VerifyFrame(reply), "verify reply");
    const auto decoded = Check(
        net::DecodeQueryReply(std::span<const uint8_t>(reply).subspan(
            net::kHeaderSize, reply_header.payload_len)),
        "decode reply");
    Sink(std::bit_cast<uint64_t>(decoded.value));
  });
  rungs.push_back({"wire_codec_point", codec_us});
  report->Put("net.codec_ns", codec_us * 1e3, "ns");

  // TCP rungs over an in-process server on the serving cube.
  double ping_us = 0.0;
  double tcp_point_us = 0.0;
  net::ServerStats server_stats;
  uint64_t server_point_us = 0;
  {
    auto registry = std::make_shared<net::CubeRegistry>();
    Check(registry->Insert("bench", net::ServeHandle::Wrap(serving)),
          "register");
    net::CubeServer::Options options;
    options.num_threads = 2;
    net::CubeServer server(registry, options);
    Check(server.Start(), "start server");
    {
      net::CubeClient client("127.0.0.1", server.port());
      for (int i = 0; i < 200; ++i) Check(client.Ping(), "ping");
      ping_us = TimeEach(tracer, "net.ping", np,
                         [&](size_t) { Check(client.Ping(), "ping"); });
      serving_reads += 2 * np;
      for (const Op& op : in.points) {
        Check(client.Point("bench", op.a).status(), "warm-up point");
      }
      const auto before = server.stats();
      tcp_point_us = TimeEach(tracer, "net.point", np, [&](size_t i) {
        Check(client.Point("bench", in.points[i].a).status(), "tcp point");
      });
      server_stats = server.stats();
      std::array<uint64_t, net::kLatencyBuckets> histogram{};
      AddPointLatencies(before, server_stats, &histogram);
      server_point_us = HistogramMedianUs(histogram);
    }
    server.Stop();
  }
  rungs.push_back({"tcp_ping", ping_us});
  rungs.push_back({"tcp_point", tcp_point_us});
  report->Put("net.ping_rtt_us", ping_us, "us");
  report->Put("net.point_rtt_us", tcp_point_us, "us");

  // Served-path counters: from the workload's own serving path when it has
  // one, else from the ladder's serving cube and server.
  const ServingStats s = serving->stats();
  ServedLayerStats served = in.served;
  if (!served.present) {
    served.overlay_hit_rate =
        s.overlay_probes == 0 ? 0.0
                              : static_cast<double>(s.overlay_hits) /
                                    static_cast<double>(s.overlay_probes);
    served.latch_wait_us_per_read =
        static_cast<double>(s.latch_wait_us_total) /
        static_cast<double>(serving_reads);
    served.latch_hold_us_max = static_cast<double>(s.latch_hold_us_max);
    served.deltas_per_log_sync =
        s.log_syncs == 0 ? 0.0
                         : static_cast<double>(s.log_appends) /
                               static_cast<double>(s.log_syncs);
    served.deltas_per_drain_batch =
        s.apply_batches == 0 ? 0.0
                             : static_cast<double>(s.applied_deltas) /
                                   static_cast<double>(s.apply_batches);
    served.stall_us = static_cast<double>(s.stall_us);
    served.rejected_unavailable = static_cast<double>(s.rejected_unavailable);
    served.server_time_us = static_cast<double>(server_point_us);
    served.rejected_at_admission =
        static_cast<double>(server_stats.rejected_at_admission);
    served.deadline_expired_before_dispatch =
        static_cast<double>(server_stats.deadline_expired_before_dispatch);
  }
  Check(serving->Close(), "close serving");
  report->Put("service.overlay_hit_rate", served.overlay_hit_rate, "ratio");
  report->Put("service.latch_wait_us_per_read", served.latch_wait_us_per_read,
              "us");
  report->Put("service.latch_hold_us_max", served.latch_hold_us_max, "us");
  report->Put("service.deltas_per_log_sync", served.deltas_per_log_sync,
              "count");
  report->Put("service.deltas_per_drain_batch", served.deltas_per_drain_batch,
              "count");
  report->Put("service.stall_us", served.stall_us, "us");
  report->Put("service.rejected_unavailable", served.rejected_unavailable,
              "count");
  report->Put("net.server_time_us", served.server_time_us, "us");
  // Time a point read spends outside the cube: the client's latency minus
  // the in-process ServingCube time of the same kind of read.
  const double client_p50 =
      in.client_point_p50_us > 0.0 ? in.client_point_p50_us : tcp_point_us;
  report->Put("net.wait_us", client_p50 - serving0_us, "us");
  report->Put("net.rejected_at_admission", served.rejected_at_admission,
              "count");
  report->Put("net.deadline_expired_before_dispatch",
              served.deadline_expired_before_dispatch, "count");

  // The ladder table: each rung's median cost and what it adds over the
  // rung below it.
  std::string table = "[";
  for (size_t i = 0; i < rungs.size(); ++i) {
    Json row;
    row.Str("rung", rungs[i].name)
        .Num("median_us", rungs[i].us)
        .Num("minus_previous_us", i == 0 ? rungs[i].us
                                         : rungs[i].us - rungs[i - 1].us);
    table += (i ? ", " : "") + row.Dump();
  }
  report->diag.Raw("ladder", table + "]");
}

}  // namespace perfbench
