#!/usr/bin/env python3
"""Runs one workload of the shiftsplit benchmark and prints its result.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --compare A.json B.json

The first call builds the benchmark package (perfbench/CMakeLists.txt,
which compiles the library from src/) into .bench_build/perfbench, then
runs the workload. Human-readable lines go to standard output first; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. The full result, with diagnostics and the host stamp, is written
to .bench_out/<workload>-seed<N>-trace<T>.json. The exit code is 0 only when
the run completed and every answer and paper-bound check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"
WORKLOADS = ("net_read_hot", "net_write_mixed", "local_olap_cold")
RUN_TIMEOUT_S = 170

# Stamp fields that must agree before two results may be compared.
HOST_FIELDS = ("nproc", "build_type", "compiler", "kernel_tier",
               "pool_blocks", "workload", "seconds", "p99_limit_us")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds the given targets; exits 2 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/CMakeLists.txt under %s; run from the "
            "repository root" % ROOT)
        sys.exit(2)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            log("perfbench: configure failed")
            sys.exit(2)
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
    if subprocess.run(command + targets, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)


def source_digest():
    """SHA-256 over the library sources: identifies the code measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) where it
    cannot be read."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0, 0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0, 0
    ticks = [int(x) for x in fields[1:9]]
    return ticks[7], sum(ticks)


def run_workload(args):
    build(["ssbench"])
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_path = os.path.join(OUT_DIR, tag + ".json")
    spans_path = os.path.join(OUT_DIR, "spans-%s.tsv" % args.workload)
    if os.path.exists(out_path):
        os.remove(out_path)
    command = [os.path.join(BUILD_DIR, "ssbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", os.path.join(BUILD_ROOT, "data-" + args.workload),
               "--out", out_path]
    if args.trace:
        command += ["--spans", spans_path]
    steal_before, total_before = cpu_ticks()
    proc = subprocess.Popen(command, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    if not os.path.isfile(out_path):
        log("perfbench: %s failed (exit %d) without a result"
            % (args.workload, code))
        return 1

    with open(out_path) as f:
        result = json.load(f)
    stamp = result["stamp"]
    stamp["nproc"] = os.cpu_count()
    stamp["source_sha256"] = source_digest()
    stamp["git_commit"] = git_commit()
    # CPU time the hypervisor gave to other guests while this run wanted
    # it: the host's share of the run-to-run spread.
    steal_after, total_after = cpu_ticks()
    if total_after > total_before:
        result["diagnostics"]["host_steal_pct"] = (
            100.0 * (steal_after - steal_before) / (total_after - total_before))
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")

    print("workload %s  seed %d  trace %d  (%s, %s, %s, nproc %s)"
          % (args.workload, args.seed, args.trace, stamp["build_type"],
             stamp["compiler"], stamp["kernel_tier"], stamp["nproc"]))
    for name, metric in result["metrics"].items():
        print("  %-40s %16.6g %s" % (name, metric["value"], metric["unit"]))
    for failure in result["check_failures"]:
        print("  CHECK FAILED: " + failure)
    print("  full result: " + os.path.relpath(out_path, ROOT))
    line = {"correct": result["correct"] and code == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": result["metrics"]}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def compare(path_a, path_b):
    """Prints per-metric ratios of two result files, refusing when their
    host stamps differ."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    mismatched = [k for k in HOST_FIELDS
                  if a["stamp"].get(k) != b["stamp"].get(k)]
    if mismatched or a.get("trace") != b.get("trace"):
        for key in mismatched:
            log("stamp mismatch on %s: %r vs %r"
                % (key, a["stamp"].get(key), b["stamp"].get(key)))
        log("perfbench: refusing to compare results from different setups")
        return 2
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va = a["metrics"][name]["value"]
        vb = b["metrics"][name]["value"]
        ratio = vb / va if va else float("nan")
        print("%-40s %14.6g %14.6g  x%.4f %s"
              % (name, va, vb, ratio, a["metrics"][name]["unit"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    parser.add_argument("--compare", nargs=2, metavar="RESULT",
                        help="compare two result files")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        build(["perfbench_selftest"])
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
