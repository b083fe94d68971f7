#!/usr/bin/env python3
"""Repeat mode: runs the benchmark once per seed and summarises each metric.

    python3 lsbench/repeat.py --workload git-audit --runs 10 --seconds 20

For every metric it prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and their distance as a share
of the median (the spread the bounds in BENCHMARK.json are set against).
Run it from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = ["bash", "lsbench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr}")
        for line in p.stdout.splitlines():
            if line.startswith(("failed operation", "oracle failed", "host:")):
                print(f"seed {seed}: {line}", flush=True)
        res = json.loads(p.stdout.strip().splitlines()[-1])
        results.append(res)
        short = {k: float(f"{v['value']:.6g}") for k, v in res["metrics"].items()}
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {short}", flush=True)

    print(f"\n{args.workload}: {len(results)} runs")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>10}")
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:10.4f}")
    fails = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed shares: {fails}; all correct: {all(r['correct'] for r in results)}")


if __name__ == "__main__":
    main()
