"""Run every workload over several seeds and print the reference figures.

    python3 bench/reference.py

Each run is a separate `bench/run.py` process, one after another, for
`run_seconds` of BENCHMARK.json, with seeds 1..10.  For every metric the
table gives the median over seeds, the quartiles and the spread (quartile
distance over median).  One traced run per workload follows, with seed 1.
Everything is also written to .bench_work/reference.json.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    for line in lines[:-1]:
        if not line.startswith("  "):
            continue
        name, value, unit, *_ = line.split()
        if name not in values:
            values[name], units[name] = float(value), unit
    share = result["failed"] / result["attempted"]
    return {"correct": result["correct"], "failed_share": share, "values": values, "units": units}


def summarize(runs: list[dict]) -> dict:
    table = {}
    for name, unit in runs[0]["units"].items():
        vals = [r["values"][name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        table[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else 0.0, "values": vals}
    return table


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {
        "machine": {"cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__},
        "seconds": seconds,
        "workloads": {},
    }
    print(f"# {report['machine']}, {seconds:g} s per run, seeds {SEEDS[0]}..{SEEDS[-1]}")
    for name in WORKLOADS:
        runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed_share"] for r in runs}),
            "end_to_end": summarize(runs),
        }
        print(f"\n## {name}: correct={entry['correct']} failed share={entry['failed_share']}")
        print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  unit")
        for metric, row in entry["end_to_end"].items():
            print(f"{metric:<24} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                  f"{row['spread']:8.2%}  {row['unit']}")
        traced = run_once(name, 1, seconds, 1)
        entry["per_layer"] = {k: {"value": v, "unit": traced["units"][k]}
                              for k, v in traced["values"].items()}
        print(f"{'per-layer (seed 1)':<44} {'value':>12}  unit")
        for metric, row in entry["per_layer"].items():
            print(f"{metric:<44} {row['value']:12.6g}  {row['unit']}")
        report["workloads"][name] = entry
    WORK.mkdir(exist_ok=True)
    (WORK / "reference.json").write_text(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
