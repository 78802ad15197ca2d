"""Benchmark the simulator end to end (``--trace 0``) or per layer
(``--trace 1``) on one workload.

    python3 perfbench/run.py --workload fig10_grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark is a closed loop with one
client: the ops of a workload (see ``batches.py``) run serially in this
process, each after the previous one finished.  An untraced run repeats
whole passes over the workload's fixed batch while another pass still
fits in ``--seconds`` (always at least one).  A traced run makes one
untraced pass, then one traced pass, and requires both to simulate
exactly the same cycles and counters.  Set-up time is the median over
fresh interpreters that each import the simulator, build the batch and
run the warm-up op.

Every op's output is checked (TSO checker and watchdog on every cell, no
violation on any corpus test, every exploration ok, identical simulated
results across passes).  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Op-level spans are written to
``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import metrics
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("fig10_grid", "shared_backends", "litmus_conform")
#: Fresh-interpreter set-ups timed per untraced run (median reported).
SETUP_REPEATS = 5
#: A further pass starts only if it is expected to end by this share
#: of ``--seconds``.
PASS_SLACK = 1.1
#: Largest |sum of self times + other_s - traced wall| / traced wall.
ACCOUNTING_TOLERANCE = 0.01


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (self-tests only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_setup(args: argparse.Namespace) -> float:
    """Median wall time of fresh interpreters doing the set-up alone."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"] + (["--tiny"] if args.tiny else [])
    samples = []
    for __ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=str(ROOT),
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_pass(batch, tracer=None):
    rec = tracing.Recorder(tracer)
    start = time.perf_counter()
    with tracing.metered(rec), (tracing.traced(tracer) if tracer
                                else contextlib.nullcontext()):
        batch.run_pass(rec)
    rec.wall_s = time.perf_counter() - start
    return rec


def problems(batch, passes) -> List[str]:
    """Why the recorded passes are not a correct run (empty if they are)."""
    found = []
    for rec in passes:
        if len(rec.ops) != batch.ops_per_pass:
            found.append(f"a pass recorded {len(rec.ops)} of "
                         f"{batch.ops_per_pass} ops")
        found += [f"{op.name}: {op.detail or 'failed'}"
                  for op in rec.ops if not op.ok]
    first = [op.simulated() for op in passes[0].ops]
    for rec in passes[1:]:
        if [op.simulated() for op in rec.ops] != first:
            found.append("simulated results differ between passes")
    return found


def measure(batch, seconds: float):
    """Untraced whole passes while another one fits in *seconds*."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(batch))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall_s > seconds * PASS_SLACK:
            return passes


def write_spans(args, passes) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    payload = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace,
               "passes": [{"wall_s": rec.wall_s,
                           "ops": [op.span() for op in rec.ops]}
                          for rec in passes]}
    path.write_text(json.dumps(payload, indent=1) + "\n")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import batches

    setup_s = 0.0 if args.setup_probe or args.trace else time_setup(args)
    batch = batches.build(args.workload, args.seed, tiny=args.tiny)
    warm = tracing.Recorder()
    with tracing.metered(warm):
        batch.warmup(warm)
    if args.setup_probe:
        return 0

    if args.trace:
        untraced = run_pass(batch)
        traced = run_pass(batch, tracing.Tracer())
        passes = [untraced, traced]
        values = metrics.per_layer(untraced, traced, batch.generate_s)
        shown = values
        found = problems(batch, passes)
        claimed = sum(values[name] for name in metrics.SELF_TIME_METRICS)
        drift = abs(claimed + values["other_s"] - traced.wall_s)
        if drift > ACCOUNTING_TOLERANCE * traced.wall_s:
            found.append(f"self times + other_s miss the traced wall "
                         f"time by {drift:.4f}s")
    else:
        passes = measure(batch, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = metrics.end_to_end(passes, setup_s, rss_mb)
        shown = dict(values, **metrics.partial_metrics(passes))
        found = problems(batch, passes)

    write_spans(args, passes)
    ops = [op for rec in passes for op in rec.ops]
    sims = sum(op.kind != "explore" for op in ops)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops={len(ops)} (op latency samples: "
          f"{sims})")
    for name, value in shown.items():
        print(f"{name:36s} {value:18.6f} {metrics.UNITS[name]}")
    for problem in found[:20]:
        print(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": not found, "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
