#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload k times and report the
spread of every end-to-end metric.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--save SET.json]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Each run is a fresh `run.py` process with its own --seed (first-seed,
first-seed + 1, ...). For every metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)), and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, which is
set from these spreads. --compare reads two saved sets of the same workload and prints
how far the second median moved from the first, as a share of the first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bounds():
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def collect(workload, runs, first_seed):
    results = []
    for seed in range(first_seed, first_seed + runs):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not last:
            sys.exit(f"run with --seed {seed} failed (status {done.returncode})")
        result = json.loads(last)
        results.append(result)
        shown = ", ".join(f"{k}={v['value']:.4g}"
                          for k, v in result["metrics"].items())
        print(f"seed {seed}: {shown}", file=sys.stderr, flush=True)
    return results


def report(workload, results):
    limit = bounds()
    failed = {r["failed"] / r["attempted"] for r in results}
    print(f"{workload}: {len(results)} runs, failed share "
          f"{sorted(failed)}, all correct: {all(r['correct'] for r in results)}")
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med
        print(f"  {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {limit.get(name, 0):6.2f}")


def compare(first_path, second_path):
    limit = bounds()
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    print(f"{first['workload']}: second set vs first")
    for name in first["results"][0]["metrics"]:
        a = statistics.median(r["metrics"][name]["value"]
                              for r in first["results"])
        b = statistics.median(r["metrics"][name]["value"]
                              for r in second["results"])
        print(f"  {name:14s} {a:12.6g} -> {b:12.6g}  {(b - a) / a:+8.2%} "
              f"(bound {limit.get(name, 0):.2f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the runs' results to this file")
    parser.add_argument("--compare", nargs=2, metavar="SET.json")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload or args.runs < 2:
        parser.error("--workload and --runs >= 2 are required")
    results = collect(args.workload, args.runs, args.first_seed)
    report(args.workload, results)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "results": results}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
