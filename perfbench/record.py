"""Repeat benchmark runs and record their spread.

    python3 perfbench/record.py --runs 10 [--workloads fig10_grid,...]
        [--first-seed 1] [--label NAME] [--layers]

Runs ``run.py`` once per seed (``--first-seed`` onwards) on each
workload, with ``run_seconds`` from ``BENCHMARK.json``, and reports each
end-to-end metric's median, quartiles (``statistics.quantiles(n=4)``)
and spread, the quartile distance as a share of the median, against a
third of its bound.  ``--label`` appends the summary as a point of
``perfbench/trajectory.json``.  ``--layers`` instead makes one traced
run per workload and stores its per-layer values, and each time's
share of the traced wall time, under ``seed`` in
``perfbench/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n"
                         f"{proc.stdout}")
    return result


def summarize(values: List[float], bound: float) -> Dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3,
            "values": values}


def record_spread(workloads: List[str], seeds: List[int]) -> Dict:
    point: Dict = {}
    for workload in workloads:
        runs = [invoke(workload, seed, 0) for seed in seeds]
        point[workload] = {
            metric["name"]: summarize(
                [run["metrics"][metric["name"]]["value"] for run in runs],
                metric["bound"])
            for metric in SPEC["end_to_end"]}
        for name, row in point[workload].items():
            print(f"{workload:16s} {name:28s} median {row['median']:14.6g}"
                  f"  q1 {row['q1']:14.6g}  q3 {row['q3']:14.6g}  spread "
                  f"{row['spread']:.4f} (bound/3 {row['bound'] / 3:.4f})"
                  f"{'' if row['steady'] else '  WIDE'}", flush=True)
    return point


def record_layers(workloads: List[str], seed: int) -> None:
    path = BENCH / "layers.json"
    layer_map = json.loads(path.read_text())
    units = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    for workload in workloads:
        values = {name: m["value"] for name, m in
                  invoke(workload, seed, 1)["metrics"].items()}
        wall = values["traced_wall_s"]
        layer_map["trace_overhead"][workload] = values["trace_overhead"]
        for name, entry in layer_map["metrics"].items():
            seed_row = entry.setdefault("seed", {})
            seed_row[workload] = {"value": values[name]}
            if units[name] == "s":
                seed_row[workload]["share"] = values[name] / wall
        print(f"{workload}: trace_overhead {values['trace_overhead']:.3f}",
              flush=True)
    path.write_text(json.dumps(layer_map, indent=1) + "\n")


def host() -> str:
    """Machine, CPU model and count, and interpreter of this run."""
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = " " + line.partition(":")[2].strip()
                break
    return (f"{platform.machine()}{model}, {os.cpu_count()} CPUs, "
            f"{platform.python_implementation()} "
            f"{platform.python_version()}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--label")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.layers:
        record_layers(workloads, args.first_seed)
        return 0
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    point = record_spread(workloads, seeds)
    if args.label:
        path = BENCH / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append({"label": args.label, "seeds": seeds,
                           "run_seconds": SPEC["run_seconds"],
                           "host": host(),
                           "workloads": point})
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
