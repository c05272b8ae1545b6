#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--trace 0|1]

Each file holds run records as run.py appends them to .bench_results/runs.jsonl
(copy that file aside after measuring each commit).  Runs are paired in file
order, so record the two commits alternately: base, new, new, base, ...

Verdicts, per (workload, metric):
  improved    at least 9 in 10 pairs won by NEW, at least 10 pairs, and the
              medians differ by more than BASE's interquartile spread
  worse       the same rule won by BASE; or NEW's median is worse than BASE's
              by more than the metric's bound in BENCHMARK.json
  unchanged   within the bound, with BASE's own spread inside the bound too
              (or, where the spread is wider, every NEW run beats every BASE run)
  unresolved  anything else: the runs cannot tell the two apart

Per-layer metrics (--trace 1) have no bound: they are improved or worse by the
pairs rule, unchanged when the medians differ by no more than BASE's spread,
and unresolved otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path, trace):
    runs = {}
    with open(path) as records:
        for line in records:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace", 0) != trace:
                continue
            runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, new, better, bound):
    """Classifies NEW against BASE for one metric; returns (verdict, pairs, wins)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    q1, q3 = spread(base)
    iqr = q3 - q1
    gain = sign * (new_median - base_median)  # > 0: NEW is better
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gain > iqr:
        return "improved", len(pairs), wins
    if enough and losses >= WIN_SHARE * len(pairs) and -gain > iqr:
        return "worse", len(pairs), wins
    if bound is None:
        return ("unchanged" if abs(gain) <= iqr else "unresolved"), len(pairs), wins
    scale = abs(base_median) or 1.0
    if -gain > bound * scale:
        return "worse", len(pairs), wins
    if iqr <= bound * scale or all(sign * (n - b) > 0 for n in new for b in base):
        return "unchanged", len(pairs), wins
    return "unresolved", len(pairs), wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as spec_file:
        spec = json.load(spec_file)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    base_runs = load(args.base, args.trace)
    new_runs = load(args.new, args.trace)

    print(f"{'workload':16} {'metric':40} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'pairs':>5} {'won':>4}  verdict")
    for workload in sorted(set(base_runs) & set(new_runs)):
        for metric in metrics:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in base_runs[workload]
                    if name in r["metrics"]]
            new = [r["metrics"][name]["value"] for r in new_runs[workload]
                   if name in r["metrics"]]
            if not base or not new:
                continue
            result, pairs, wins = verdict(base, new, metric["better"], metric.get("bound"))
            bq1, bq3 = spread(base)
            nq1, nq3 = spread(new)
            print(f"{workload:16} {name:40} "
                  f"{statistics.median(base):12.6g} [{bq1:9.4g}, {bq3:9.4g}] "
                  f"{statistics.median(new):12.6g} [{nq1:9.4g}, {nq3:9.4g}] "
                  f"{pairs:5d} {wins:4d}  {result}")
    only = sorted(set(base_runs) ^ set(new_runs))
    if only:
        print(f"workloads measured on one side only: {', '.join(only)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
