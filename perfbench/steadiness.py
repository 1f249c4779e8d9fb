#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds N] [--first-seed S]
                                    [--exact-runs K] [--exact-seed S]

Part 1 runs each workload untraced on N seeds and reports, per end-to-end
metric, the distance between the first and third quartile as a share of
the median, against a third of the metric's bound in BENCHMARK.json (the
target) and the bound itself. setup_s has no spread limit, only a bound
on its median.

Part 2 (with --exact-runs K >= 2) runs each workload traced K times on one
seed, in separate processes, and sorts the per-layer counts into those
that repeat exactly (a claim may rest on them) and those that do not (they
get the spread of their K values instead).

The report is printed and written to .bench_build/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d trace %d exited %d:\n%s" % (
            workload, seed, trace, proc.returncode, proc.stdout[-2000:]))
    result = json.loads(lines[-1])
    faults = [line for line in lines if line.startswith("HARNESS FAULT")]
    return {k: m["value"] for k, m in result["metrics"].items()}, elapsed, faults


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--exact-runs", type=int, default=0)
    parser.add_argument("--exact-seed", type=int, default=1)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    report = {"run_seconds": seconds, "spread": {}, "exact": {}}
    steady = True

    for workload in workloads:
        runs, walls, faults = [], [], {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics, wall, fault = run_once(workload, seed, seconds, 0)
            runs.append(metrics)
            walls.append(wall)
            if fault:
                faults[seed] = fault
        rows = {}
        print("## %s: %d seeds, run wall %.1f-%.1f s, %d with a harness fault" % (
            workload, len(runs), min(walls), max(walls), len(faults)))
        for seed, fault in faults.items():
            print("seed %d: %s" % (seed, "; ".join(fault)))
        print("| metric | median | spread | target (bound/3) | bound | verdict |")
        print("|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            s = harness.spread(values)
            if name == "setup_s":
                verdict = "not limited"
            elif s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
                steady = False
            rows[name] = {"values": values, "median": statistics.median(values),
                          "spread": s, "bound": bound, "verdict": verdict}
            print("| %s | %.6g | %.3f | %.3f | %.2f | %s |" % (
                name, statistics.median(values), s, bound / 3, bound, verdict))
        report["spread"][workload] = {"metrics": rows, "wall_s": walls,
                                      "harness_faults": faults}

    if args.exact_runs >= 2:
        for workload in workloads:
            runs = [run_once(workload, args.exact_seed, seconds, 1)[0]
                    for _ in range(args.exact_runs)]
            exact, varying = [], {}
            for name in runs[0]:
                values = [r[name] for r in runs]
                if all(v == values[0] for v in values):
                    exact.append(name)
                else:
                    varying[name] = {"values": values, "spread": harness.spread(values)}
            report["exact"][workload] = {"repeat_exactly": exact, "vary": varying}
            print("## %s: %d traced runs of seed %d" % (
                workload, args.exact_runs, args.exact_seed))
            print("repeat exactly: %s" % ", ".join(exact))
            for name, row in varying.items():
                print("varies: %s %s (spread %.4f)" % (
                    name, ["%.6g" % v for v in row["values"]], row["spread"]))

    out = ROOT / ".bench_build" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("report written to %s" % out.relative_to(ROOT))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
