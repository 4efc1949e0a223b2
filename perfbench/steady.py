#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs every workload --runs times, each time with another seed, rotating the
order of the workloads from one round to the next, and prints for every
end-to-end metric its median, quartiles and spread (interquartile distance
as a share of the median) against the metric's bound. A metric is steady
when its spread is at most a third of its bound; set-up time is reported by
its median only. It also checks that every run was correct and that the
share of failed operations is the same in every run of a workload.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Exits 1 when a run fails, a result is incorrect, a spread exceeds its bound
or failure shares differ.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace=0):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            seed = args.first_seed + i
            r = run_once(spec["command"], w, seed, spec["run_seconds"])
            results[w].append(r)
            sys.stderr.write(f"{w} seed {seed}: {json.dumps(r['metrics'])}\n")

    ok = True
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"== {w}: {len(runs)} runs, correct {correct}, failed shares {sorted(shares)}")
        print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] == "setup_s":
                verdict = "median only"
            elif spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
                ok = False
            print(f"{m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
