#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: g500_dram, g500_ssd, serve_rw, sharded (see perfbench/README.md).
The first run in a checkout builds the driver from the checkout's sources
into .bench_build/. Every answer is checked; the command exits non-zero if
any check fails. A line "HARNESS FAULT: ..." marks a run whose figures
describe the harness rather than the program (harness.harness_faults).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics; with --trace 1 they are the per-layer metrics,
and the spans and counts of the run are written to
.bench_build/traces/<workload>-seed<n>.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = ("g500_dram", "g500_ssd", "serve_rw", "sharded")
DRIVER_TIMEOUT_S = 170


def build():
    """Configures once and (re)builds the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("no library sources beside perfbench/ (need ../src "
                           "and ../CMakeLists.txt)")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-G", generator,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return BUILD / "perfbench_driver"


def run_driver(driver, args):
    workdir = BUILD / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(driver), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir)],
            stdout=subprocess.PIPE, timeout=DRIVER_TIMEOUT_S, check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout)


def print_table(title, metrics):
    print(title)
    for name, (value, unit, samples) in metrics.items():
        print("  %-34s %16.6g %-9s n=%d" % (name, value, unit, samples))


def write_trace(report, layers):
    """Writes spans (with self time), per-span summary and counts."""
    spans = report.get("spans", [])
    own = harness.self_times(spans)
    summary = harness.span_summary(spans)
    path = BUILD / "traces" / ("%s-seed%d.json" % (report["workload"], report["seed"]))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump({
            "workload": report["workload"],
            "seed": report["seed"],
            "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns", "self_ns"],
            "spans": [list(s) + [own[s[0]]] for s in spans],
            "span_summary": summary,
            "per_layer": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in layers.items()},
            "harness_faults": harness.harness_faults(report),
            "obs_counters": report.get("obs_counters", {}),
            "obs_histograms": report.get("obs_histograms", {}),
            "values": report["values"],
        }, f)
    return path, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        report = run_driver(build(), args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    for failure in report["failures"]:
        print("FAILED: %s" % failure)
    for fault in harness.harness_faults(report):
        print("HARNESS FAULT: %s" % fault)
    correct = report["failed"] == 0 and report["attempted"] > 0
    if args.trace:
        metrics = harness.per_layer(report)
        path, summary = write_trace(report, metrics)
        print("span self time (%s, seed %d):" % (args.workload, args.seed))
        for name, row in sorted(summary.items()):
            print("  %-24s count=%-6d total=%10.4f s  self=%10.4f s" % (
                name, row["count"], row["total_ns"] * 1e-9, row["self_ns"] * 1e-9))
        if args.workload.startswith("g500"):
            print("bfs.unattributed_s is %.1f%% of graph500.bfs_s"
                  % (100 * metrics["bfs.unattributed_frac"][0]))
        print("trace written to %s" % path.relative_to(ROOT))
        print_table("per-layer metrics:", metrics)
    else:
        metrics = harness.end_to_end(report)
        print_table("end-to-end metrics (%s, seed %d):" % (args.workload, args.seed),
                    metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
