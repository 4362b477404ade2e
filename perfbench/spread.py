#!/usr/bin/env python3
"""Run-to-run spread of the benchmark across seeds.

Runs the command from BENCHMARK.json once per seed on one workload and
prints, for every metric, the median of the runs, the distance between
the first and third quartile as a share of the median (the figure the
bounds in BENCHMARK.json are set against), and the bound.

    python3 perfbench/spread.py --workload av_pool_sgx --seeds 1-10 [--trace 0]

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    first, last = (int(s) for s in args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for seed in range(first, last + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run not correct: {result}")
        runs.append(result["metrics"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if bounds.get(k) is not None), flush=True)
    print(f"{'metric':32} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        share = (q[2] - q[0]) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32} {med:14.6g} {share:11.4f} {bound if bound is not None else '-':>6}")


if __name__ == "__main__":
    main()
