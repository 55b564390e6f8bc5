#!/usr/bin/env python3
"""Steadiness check: are two sets of benchmark runs of the same code alike?

    python3 perfbench/steady.py [--workloads a,b]

Run from the root of a checkout. For each workload (all of
BENCHMARK.json's, or those named) it makes two sets of ten runs of
`perfbench/run.py`, each run with its own seed (seeds 1-10, then 11-20),
and reports, per end-to-end metric and set, the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and every
run's value. Against the bounds in BENCHMARK.json it then checks that
every spread is within its bound, that the second set's median is not
worse than the first's by more than the bound, and that the share of
failed operations is the same in both sets. Exits 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
RUNS = 10
FIRST_SEED = 1


def one_run(cmd, workload, seed, seconds):
    args = [*cmd, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"run failed: {' '.join(args)}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for workload in workloads:
        sets = []
        for k in range(SETS):
            seeds = range(FIRST_SEED + k * RUNS, FIRST_SEED + (k + 1) * RUNS)
            runs = [one_run(bench["command"], workload, s, bench["run_seconds"]) for s in seeds]
            sets.append(runs)
        print(f"== {workload}")
        shares = []
        for runs in sets:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append(failed / attempted)
            if not all(r["correct"] for r in runs):
                print("  FAIL: a run reported incorrect output")
                ok = False
        print(f"  failed share per set: {shares}")
        if len(set(shares)) > 1:
            print("  FAIL: failed shares differ between sets")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for k, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                meds.append(q2)
                flag = ""
                if spread > bound:
                    flag = "  SPREAD OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  spread over bound/3"
                print(f"  {name:22s} set{k} median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {spread:.4f} (bound {bound}){flag}")
                print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
            shift = (meds[1] - meds[0]) / meds[0]
            worse = shift if m["better"] == "lower" else -shift
            verdict = "ok" if worse <= bound else "MEDIAN SHIFT OVER BOUND"
            if worse > bound:
                ok = False
            print(f"  {name:22s} set1 vs set0: {shift:+.4f} {verdict}")
    print("STEADY" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
