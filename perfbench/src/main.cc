// ssbench: runs one benchmark workload and writes its result file.
//
//   ssbench --workload net_read_hot|net_write_mixed|local_olap_cold
//           --seed N --seconds S --trace 0|1 --data-dir DIR --out FILE
//           [--spans FILE]
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, and every span recorded around the calls
// into the library is written to --spans. Exits 1 when a run fails or any
// answer or paper-bound check fails. run.py builds this program and turns
// its result file into the benchmark's output line.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "shiftsplit/kernels/kernels.h"
#include "workloads.h"

using namespace perfbench;

namespace {

const char* const kModules[] = {"bench", "kernels", "storage", "tile",
                                "core",  "service", "net"};

void Usage() {
  std::fprintf(stderr,
               "usage: ssbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --data-dir DIR --out FILE [--spans FILE]\n");
}

// Per-module self time over every recorded span, reported in trace runs,
// and the span dump.
void ReportSpans(const Tracer& tracer, const std::string& spans_path,
                 Report* report) {
  const auto& spans = tracer.spans();
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> self_ms;
  for (const char* module : kModules) self_ms[module] = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string module = spans[i].name.substr(0, spans[i].name.find('.'));
    self_ms[module] += static_cast<double>(self[i]) / 1e6;
  }
  for (const char* module : kModules) {
    report->Put(std::string("self.") + module + "_ms", self_ms[module], "ms");
  }
  report->diag.Num("spans", static_cast<double>(spans.size()));
  if (spans_path.empty()) return;
  // One tab-separated line per span, in recording order; `parent` is the
  // line index (0-based, after the header) of the enclosing span, -1 for a
  // root.
  std::ofstream out(spans_path);
  out << "name\tstart_ns\tend_ns\tparent\trequest_id\tself_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << s.parent << '\t' << s.request_id << '\t' << self[i] << '\n';
  }
}

std::string ResultJson(const Config& config, const Report& report) {
  Json metrics;
  for (const Metric& m : report.metrics) {
    Json v;
    v.Num("value", m.value).Str("unit", m.unit);
    metrics.Raw(m.name, v.Dump());
  }
  std::string failures = "[";
  for (size_t i = 0; i < report.check_failures.size(); ++i) {
    failures += (i ? ", " : "") + JsonString(report.check_failures[i]);
  }
  Json out;
  out.Str("workload", config.workload)
      .Num("seed", static_cast<double>(config.seed))
      .Num("trace", config.trace ? 1 : 0)
      .Raw("correct", report.correct ? "true" : "false")
      .Num("attempted", static_cast<double>(report.attempted))
      .Num("failed", static_cast<double>(report.failed))
      .Raw("metrics", metrics.Dump())
      .Raw("check_failures", failures + "]")
      .Raw("stamp", report.stamp.Dump())
      .Raw("diagnostics", report.diag.Dump());
  return out.Dump();
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string out_path;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--data-dir") {
      config.data_dir = value;
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--spans") {
      spans_path = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (config.workload.empty() || config.data_dir.empty() || out_path.empty() ||
      config.seconds <= 0.0) {
    Usage();
    return 2;
  }

  // The in-process CubeServer writes replies with write(2), so a reply to a
  // connection the generator has already dropped (it replaces its
  // connections after a step that gave up on stragglers) would otherwise
  // raise SIGPIPE and kill the run.
  std::signal(SIGPIPE, SIG_IGN);

  Report report;
  Tracer tracer(config.trace);
  report.stamp.Str("workload", config.workload)
      .Num("seed", static_cast<double>(config.seed))
      .Num("seconds", config.seconds)
      .Str("kernel_tier", shiftsplit::kernels::Active().name)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Num("hardware_threads", std::thread::hardware_concurrency());
  int code = 0;
  try {
    std::filesystem::remove_all(config.data_dir);
    std::filesystem::create_directories(config.data_dir);
    if (config.workload == "net_read_hot") {
      RunNetReadHot(config, &report, &tracer);
    } else if (config.workload == "net_write_mixed") {
      RunNetWriteMixed(config, &report, &tracer);
    } else if (config.workload == "local_olap_cold") {
      RunLocalOlapCold(config, &report, &tracer);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
      return 2;
    }
    if (config.trace) {
      ReportSpans(tracer, spans_path, &report);
    } else {
      report.Put("peak_rss_mib", PeakRssMib(), "MiB");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ssbench: %s\n", e.what());
    code = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(config.data_dir, ignored);
  if (code != 0) return code;

  for (const std::string& failure : report.check_failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  std::ofstream(out_path) << ResultJson(config, report) << "\n";
  return report.correct ? 0 : 1;
}
