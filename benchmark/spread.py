#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 benchmark/spread.py [--runs 10] [--seconds 10] [--first-seed 1] [--values] [workload ...]

Runs `benchmark/run.sh --trace 0` `--runs` times per workload, each with
another seed, and prints for each metric the median and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound from BENCHMARK.json. A spread above a
third of the bound is flagged.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

here = pathlib.Path(__file__).resolve().parent
manifest = json.loads((here.parent / "BENCHMARK.json").read_text())

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--values", action="store_true", help="also print every run's value, in run order")
ap.add_argument("workloads", nargs="*", default=[w["name"] for w in manifest["workloads"]])
args = ap.parse_args()

bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
status = 0
for workload in args.workloads:
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=here.parent, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed} failed:\n{out.stdout}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    print(f"== {workload}: {args.runs} runs of {args.seconds} s")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if name != "setup_s" and spread > bounds[name] / 3:
            flag = "  <-- above a third of the bound"
            status = 1
        print(f"{name:<22} median {med:>12.4f}  iqr/median {spread * 100:5.1f}%"
              f"  bound {bounds[name] * 100:3.0f}%{flag}")
        if args.values:
            print("    " + " ".join(f"{x:.4g}" for x in v))
sys.exit(status)
