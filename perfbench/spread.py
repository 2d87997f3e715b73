#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every workload of BENCHMARK.json and every seed it runs the command
from BENCHMARK.json for run_seconds, the way the benchmark is meant to be
driven, from the repository root:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline/end_to_end.json
    python3 perfbench/spread.py --seeds 1,9001 --trace 1 --out perfbench/baseline/per_layer.json

For each end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median, next to the metric's bound.
A spread at or above a third of the bound is marked.  With --trace 1 it
summarises the per-layer metrics instead (no bounds).  Exits 1 when any
run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    started = time.monotonic()
    done = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None, wall
    return json.loads(lines[-1]), wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seconds": seconds, "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in workloads:
        values, walls = {}, []
        for seed in args.seeds:
            result, wall = run_once(bench["command"], workload, seed, seconds, args.trace)
            walls.append(wall)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {len(args.seeds)} seeds, {seconds} s runs, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        rows = {}
        for name, series in values.items():
            med = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- spread >= bound/3"
            bound_text = f"{bound:5.2f}" if bound is not None else "    -"
            print(f"  {name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.4f} bound {bound_text}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": series}
        summary["workloads"][workload] = {"max_wall_s": max(walls), "metrics": rows}

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
