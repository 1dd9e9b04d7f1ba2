#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload N times, each with another seed, from the root of a
checkout, and prints for every metric the median, the quartiles and the
relative spread (interquartile distance over the median), next to the
metric's bound in BENCHMARK.json. Use it to set and check the bounds:

    python3 e2ebench/steady.py --runs 10
    python3 e2ebench/steady.py --runs 5 --workloads serve-tenants --first-seed 11

--log-dir keeps every run's standard error (per-pass wall and CPU
seconds, latency summaries) as <workload>-<seed>.log in that directory.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace, log_dir):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if log_dir:
        with open(os.path.join(log_dir, f"{workload}-{seed}.log"), "w") as f:
            f.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's values")
    ap.add_argument("--log-dir", help="keep every run's standard error here")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    worst = 0.0
    for w in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run(w, args.first_seed + i, args.seconds, args.trace, args.log_dir)
            if not r["correct"]:
                raise SystemExit(f"{w} seed {args.first_seed + i}: incorrect")
            results.append(r)
            print(f"{w} seed {args.first_seed + i}: attempted {r['attempted']} failed {r['failed']}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {args.runs} runs, failed shares {sorted(shares)}")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in sorted(results[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = " OVER" if spread > bound else (" >1/3" if spread > bound / 3 else "")
            print(f"  {name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {bound if bound else '':>6}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in vals))
    print(f"\nworst spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
