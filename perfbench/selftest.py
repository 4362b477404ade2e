#!/usr/bin/env python3
"""Self-test of the host-cost benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it
runs the benchmark command in its short mode twice with tracing off and
twice with tracing on, and checks that

  * the last line of standard output is the result object, with exactly
    the keys correct/attempted/failed/metrics, a correct run and no
    failed operation;
  * the metrics are exactly the ones BENCHMARK.json declares for that
    mode, each finite and with its declared unit;
  * the simulated metrics and the per-op counts repeat exactly between
    the two runs;
  * a traced run writes its span file, with spans of one operation
    sharing a run id.

Last, it checks that the command fails, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first kind of failure it finds, after listing all.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SEED = 7
EXACT_UNITS = ("1/op", "count", "ratio")


def run(cmd, workload, trace, cwd="."):
    args = cmd + ["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                  "--trace", str(trace), "--short"]
    return subprocess.run(args, capture_output=True, text=True, timeout=900, cwd=cwd)


def check_result(proc, declared, where, errors):
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        errors.append(f"{where}: last line is not JSON: {e}")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return None
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: not correct: {proc.stderr[-2000:]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted = {result['attempted']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        errors.append(f"{where}: missing {sorted(set(declared) - set(metrics))}, "
                      f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {value!r} is not a finite number")
        if name in declared and m.get("unit") != declared[name]:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, declared {declared[name]!r}")
    return metrics


def check_spans(workload, errors):
    path = f"perfbench/out/spans-{workload}-seed{SEED}.jsonl"
    try:
        with open(path) as f:
            lines = [json.loads(l) for l in f]
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{workload}: span file {path}: {e}")
        return
    if not lines or "provenance" not in lines[0]:
        errors.append(f"{path}: first line is not the provenance")
        return
    spans = lines[1:]
    runs = {}
    for s in spans:
        if set(s) != {"id", "parent", "run", "name", "start_ns", "end_ns"}:
            errors.append(f"{path}: span keys {sorted(s)}")
            return
        if s["end_ns"] < s["start_ns"]:
            errors.append(f"{path}: span {s['id']} ends before it starts")
        runs.setdefault(s["run"], []).append(s)
    if not spans or all(len(v) < 2 for v in runs.values()) and workload == "registration_container":
        errors.append(f"{path}: no operation has more than one span")


def check_bare_checkout(cmd, errors):
    """The command must fail, and print no result, without the program's sources."""
    bare = os.path.join("perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "target"))
    shutil.copy("BENCHMARK.json", bare)
    proc = run(cmd, "av_pool_sgx", 0, cwd=bare)
    printed_result = any(l.startswith("{\"correct\"") for l in proc.stdout.splitlines())
    if proc.returncode == 0 or printed_result:
        errors.append(f"bare checkout: exit {proc.returncode}, result printed: {printed_result}")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            runs = [check_result(run(cmd, workload, trace), declared[trace], where, errors)
                    for _ in range(2)]
            if None in runs:
                continue
            exact = [n for n, u in declared[trace].items()
                     if n.startswith("sim_") or u in EXACT_UNITS]
            for name in exact:
                a, b = (r[name]["value"] for r in runs)
                if a != b:
                    errors.append(f"{where}: {name} differs between runs: {a!r} vs {b!r}")
            print(f"ok {where}: {len(runs[0])} metrics, {len(exact)} repeat exactly", flush=True)
        check_spans(workload, errors)
    check_bare_checkout(cmd, errors)
    for e in errors:
        print("FAIL", e)
    if errors:
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
