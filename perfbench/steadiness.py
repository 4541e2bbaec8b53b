#!/usr/bin/env python3
"""Repeats the benchmark to measure how steady its end-to-end metrics are.

    python3 perfbench/steadiness.py

Runs perfbench/run.py untraced on every workload of BENCHMARK.json, once
per seed 1-10, for run_seconds each, and prints for every metric the
median, the first and third quartiles (statistics.quantiles(values, n=4))
and the spread, (Q3 - Q1) / median, next to the metric's bound, as a
Markdown table.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows.append(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                        f"{(q3 - q1) / med:.2%} | {bounds[name]:.2f} |")
    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    print("\n".join(rows))


if __name__ == "__main__":
    main()
