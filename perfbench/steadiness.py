#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs the chosen workloads k times each (seeds 1 .. k, for run_seconds
with tracing off, the workloads interleaved seed by seed so slow host
phases fall on all of them), and prints for every end-to-end metric its median, quartiles and
spread (q3 - q1) / median against the metric's bound. With --sets 2 it
repeats the whole set and also prints how far the second set's median
moved from the first's, against the bound.

Run from the repository root:

    python3 perfbench/steadiness.py campaign-mix -k 5
    python3 perfbench/steadiness.py all -k 10 --sets 2

Quartiles are statistics.quantiles(values, n=4). A spread at most a
third of the bound is "steady"; up to the bound, "within bound".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    begun = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - begun
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, took


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def run_set(bench, workloads, seeds, label):
    values = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            result, took = run_once(bench, w, seed)
            ok = result["correct"] and result["failed"] == 0
            print(f"[{label}] {w:<18} seed {seed:<4} {took:6.1f} s  "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}" + ("" if ok else "  <-- FAILED"),
                  flush=True)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    return values


VERDICTS = ["steady", "within bound", "TOO NOISY"]


def worse_of(a, b):
    return max(a, b, key=VERDICTS.index)


def report(bench, values, previous=None):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst = "steady"
    for w, metrics in values.items():
        print(f"\n{w}")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, vals in metrics.items():
            med, q1, q3 = summarise(vals)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds[name]
            bound = b["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
            worst = worse_of(worst, verdict)
            line = (f"  {name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                    f"{spread:>8.3f} {bound:>6}  {verdict}")
            if previous is not None:
                first = statistics.median(previous[w][name])
                worse = (first - med) / first if b["better"] == "higher" else (med - first) / first
                flag = "ok" if worse <= bound else "WORSE THAN BOUND"
                line += f"  | vs set 1: {worse:+.3f} worse ({flag})"
                if flag != "ok":
                    worst = VERDICTS[-1]
            print(line)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload", help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("-k", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = ap.parse_args()
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names:
            raise SystemExit(f"unknown workload '{w}' (one of: {', '.join(names)})")
    if args.k < 2:
        raise SystemExit("-k must be at least 2")
    seeds = list(range(1, args.k + 1))
    first = run_set(bench, workloads, seeds, "set 1")
    verdict = report(bench, first)
    if args.sets == 2:
        second = run_set(bench, workloads, seeds, "set 2")
        verdict = worse_of(verdict, report(bench, second, previous=first))
    print(f"\noverall: {verdict}")
    return 0 if verdict != "TOO NOISY" else 1


if __name__ == "__main__":
    sys.exit(main())
