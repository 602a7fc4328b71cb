#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each with another --seed, and prints per end-to-end metric the median, the
interquartile range (as statistics.quantiles(values, n=4) gives it) as a
share of the median, and max/min. A metric is steady when that share stays
below a third of the metric's bound; setup_s is exempt from the spread
check, as in the acceptance rule.

Run from the repository root:

    python3 perfbench/steady.py                 # 10 runs of every workload
    python3 perfbench/steady.py --runs 5 --workloads scale_ff --first-seed 100

Results are also written as JSON to the build directory
(.bench_build/perfbench/steady-<first seed>.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in opts.workloads.split(","):
        values = {name: [] for name in bounds}
        for k in range(opts.runs):
            seed = opts.first_seed + k
            got = run_once(spec["command"], workload, seed, opts.seconds)
            for name in bounds:
                values[name].append(got[name])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{n}={got[n]:.6g}" for n in bounds), flush=True)
        report[workload] = {}
        print(f"\n{workload}: {opts.runs} runs")
        print(f"  {'metric':<14} {'median':>12} {'iqr/median':>11} {'max/min':>8} {'bound':>6}  verdict")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = max(xs) / min(xs) if min(xs) else float("inf")
            if name == "setup_s":
                verdict = "exempt"
            elif spread < bounds[name] / 3:
                verdict = "steady"
            elif spread <= bounds[name]:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            print(f"  {name:<14} {med:>12.6g} {spread:>11.4f} {ratio:>8.3f} {bounds[name]:>6}  {verdict}  ({units[name]})")
            report[workload][name] = {"values": xs, "median": med, "iqr_share": spread,
                                      "max_over_min": ratio, "bound": bounds[name]}
        print()
    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs(os.path.join(build, "perfbench"), exist_ok=True)
    with open(os.path.join(build, "perfbench", f"steady-{opts.first_seed}.json"), "w") as f:
        json.dump(report, f, indent=2)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
