#!/usr/bin/env python3
"""Steadiness report for the fixrep product benchmark (perfbench/README.md).

Runs each workload N times, each with its own seed, and prints for every
end-to-end metric the median, the quartiles and the spread (q3 - q1) as
a share of the median, next to the metric's bound from BENCHMARK.json:

    python3 perfbench/steadiness.py --runs 10 --first-seed 1
    python3 perfbench/steadiness.py --runs 5 --workloads serve_mixed

A spread under a third of the bound is steady. setup_s's spread is shown
but not judged. With --save FILE the values are stored; with --compare
FILE the medians are also compared with a saved earlier set, and a
median worse than the earlier one by more than the bound is flagged.
Exits 1 when a run fails or a judged spread or median exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, run.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: correct=%s failed=%d" %
                           (workload, seed, result["correct"],
                            result["failed"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    values = {}
    ok = True
    for workload in workloads:
        values[workload] = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                measured = run_once(workload, seed, bench["run_seconds"])
            except RuntimeError as error:
                print("FAILED:", error)
                ok = False
                continue
            for m in metrics:
                values[workload][m["name"]].append(measured[m["name"]])
            print("  %s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (m["name"], measured[m["name"]])
                for m in metrics)), flush=True)

    print("\n%-20s %-12s %14s %14s %14s %8s %6s %8s  %s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound",
           "vs_prev", "verdict"))
    for workload in workloads:
        for m in metrics:
            name = m["name"]
            series = values[workload][name]
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "steady" if spread < m["bound"] / 3 else (
                "within" if spread <= m["bound"] else "WIDE")
            if name == "setup_s":
                verdict += " (not judged)"
            elif verdict == "WIDE":
                ok = False
            change = ""
            prev = earlier.get(workload, {}).get(name)
            if prev and median:
                before = statistics.median(prev)
                worse = ((median - before) / before if m["better"] == "lower"
                         else (before - median) / before)
                change = "%+.3f" % worse
                if worse > m["bound"]:
                    verdict += " MEDIAN-WORSE"
                    ok = False
            print("%-20s %-12s %14.6g %14.6g %14.6g %8.4f %6.2f %8s  %s" %
                  (workload, name, median, q1, q3, spread, m["bound"], change,
                   verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
