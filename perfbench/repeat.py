#!/usr/bin/env python3
"""Repeats one workload and summarises each metric.

One build (this checkout), N runs with seeds 1..N:

    python3 perfbench/repeat.py --workload quote-storm --runs 10

Two builds, alternating which runs first in each pair (each ROOT is a
checkout holding perfbench/):

    python3 perfbench/repeat.py --workload quote-storm --runs 10 \\
        --base ../parent --head .

Every run measures BENCHMARK.json's run_seconds, the run length its
bounds were set for. Prints each end-to-end metric's median, quartiles
and spread (quartile distance over median) per build. With two builds it
also prints, per metric, the pairs the head won and whether the
difference is resolved: the head wins at least 9 of 10 pairs and the
medians differ by more than the base's quartile distance.
--trace-overhead adds traced runs and reports how far their end-to-end
figures sit from the untraced ones.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(root):
    """Returns ({metric: (better, bound)}, run_seconds) from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    directions = {m["name"]: (m["better"], m.get("bound"))
                  for m in spec["end_to_end"]}
    return directions, spec["run_seconds"]


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d (exit %d)" %
                         (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    # Traced runs print their end-to-end figures as "e2e" lines.
    e2e = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "e2e":
            e2e[parts[1]] = float(parts[2])
    return result, e2e


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(label, runs, directions):
    print("%s: %d runs" % (label, len(runs)))
    print("  %-18s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3",
                                        "spread"))
    for name in directions:
        values = [r[name] for r in runs if name in r]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        print("  %-18s %14.4f %14.4f %14.4f %7.1f%%" % (name, q1, med, q3,
                                                      100 * spread))


def compare(base_runs, head_runs, directions):
    print("head vs base (pairs won by head; resolved = >=9/10 pairs won and "
          "median gap > base quartile distance)")
    for name, (better, bound) in directions.items():
        b = [r[name] for r in base_runs]
        h = [r[name] for r in head_runs]
        wins = losses = 0
        for x, y in zip(b, h):
            if y == x:
                continue
            head_better = y < x if better == "lower" else y > x
            wins += head_better
            losses += not head_better
        bq1, bmed, bq3 = quartiles(b)
        _, hmed, _ = quartiles(h)
        gap = abs(hmed - bmed)
        resolved = wins >= 0.9 * len(b) and gap > (bq3 - bq1)
        change = (hmed - bmed) / bmed if bmed else float("nan")
        print("  %-18s base %12.4f head %12.4f (%+6.1f%%) won %2d/%d %s" % (
            name, bmed, hmed, 100 * change, wins, len(b),
            "RESOLVED" if resolved else "unresolved"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--base", help="checkout root of the parent build")
    parser.add_argument("--head", default=os.path.dirname(HERE),
                        help="checkout root of the build under test")
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args()

    directions, seconds = load_spec(args.head)
    seeds = range(args.first_seed, args.first_seed + args.runs)
    head_runs, base_runs, traced = [], [], []
    for i, seed in enumerate(seeds):
        order = [("head", args.head)]
        if args.base:
            order.append(("base", args.base))
            if i % 2:
                order.reverse()
        for label, root in order:
            result, _ = run_once(root, args.workload, seed, seconds, 0)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            (head_runs if label == "head" else base_runs).append(values)
            print("%s seed %d: %s" % (label, seed, json.dumps(values)),
                  flush=True)
        if args.trace_overhead:
            _, e2e = run_once(args.head, args.workload, seed, seconds, 1)
            traced.append(e2e)
    if args.base:
        summarize("base", base_runs, directions)
    summarize("head", head_runs, directions)
    if args.base:
        compare(base_runs, head_runs, directions)
    if traced:
        summarize("head traced", traced, directions)
        print("tracing overhead (traced median vs untraced median):")
        for name in directions:
            t = [r[name] for r in traced if name in r]
            u = [r[name] for r in head_runs if name in r]
            if t and u and statistics.median(u):
                print("  %-18s %+6.1f%%" % (
                    name, 100 * (statistics.median(t) / statistics.median(u) - 1)))


if __name__ == "__main__":
    main()
