#!/usr/bin/env python3
"""Steadiness check of the benchmark.

Runs the command in BENCHMARK.json once per seed on each workload, then
reports, per end-to-end metric, the quartiles of the values and their
spread: (Q3 - Q1) / median, with Q1 and Q3 as statistics.quantiles(n=4)
gives them. A metric is steady when its spread stays below a third of
its bound; it is within its bound when the spread is below the bound.

With --record, the set of runs is appended to the given file's list of
sets, next to the host it was measured on, and each median is compared
with the first set's: a median worse than the first by more than the
metric's bound is a shift. The exit code is 1 when any spread exceeds
its bound or any median shifts.

    python3 perfbench/steady.py --runs 10 --seed 1 [--workloads a,b] \
        [--seconds S] [--record perfbench/steadiness.json]

Run it from the root of the repository. Workloads are interleaved seed
by seed, so slow drift of the host spreads over all of them.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    return result, elapsed


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--record", default="")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in names}
    walls = {w: [] for w in names}
    attempted = {w: [] for w in names}
    for i in range(opts.runs):
        seed = opts.seed + i
        for w in names:
            result, elapsed = run_once(bench["command"], w, seed, seconds, 0)
            walls[w].append(elapsed)
            attempted[w].append(result["attempted"])
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: {elapsed:.1f} s, {result['attempted']} jobs",
                  file=sys.stderr)

    record = {
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count()},
        "runs": opts.runs,
        "first_seed": opts.seed,
        "seconds": seconds,
        "workloads": {},
    }
    unsteady, outside = [], []
    for w in names:
        rows = {}
        print(f"\n{w}: wall {min(walls[w]):.1f}-{max(walls[w]):.1f} s per run, "
              f"{min(attempted[w])}-{max(attempted[w])} jobs per run")
        for m, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread >= bounds[m]:
                outside.append(f"{w}/{m}")
                verdict = "OUTSIDE BOUND"
            elif spread >= bounds[m] / 3:
                unsteady.append(f"{w}/{m}")
                verdict = "within bound, above a third"
            else:
                verdict = "steady"
            rows[m] = {"q1": q1, "median": med, "q3": q3, "spread": spread,
                       "bound": bounds[m], "values": vs}
            print(f"  {m:<18} median {med:<14.6g} spread {spread:7.4f} "
                  f"bound {bounds[m]:.3f} {verdict}")
        record["workloads"][w] = {"jobs_per_run": attempted[w], "metrics": rows}
    if opts.record:
        sets = []
        if os.path.exists(opts.record):
            with open(opts.record) as f:
                sets = json.load(f)["sets"]
        if sets:
            print("\nmedian against the first recorded set:")
        for w in names if sets else []:
            for m in bounds:
                first = sets[0]["workloads"][w]["metrics"][m]["median"]
                now = record["workloads"][w]["metrics"][m]["median"]
                worse = (now - first if lower[m] else first - now) / first
                print(f"  {w}/{m:<18} worse by {worse:+.4f} (bound {bounds[m]:.3f})")
                if worse > bounds[m]:
                    outside.append(f"{w}/{m} median")
        sets.append(record)
        with open(opts.record, "w") as f:
            json.dump({"sets": sets}, f, indent=1)
            f.write("\n")
    if unsteady:
        print("\nwithin bound but above a third of it: " + ", ".join(unsteady))
    if outside:
        print("\noutside bound or shifted: " + ", ".join(outside))
        sys.exit(1)


if __name__ == "__main__":
    main()
