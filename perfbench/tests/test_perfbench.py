"""Self-tests for the benchmark; run from the repository root with

    python3 -m pytest perfbench/tests -q

They use the tiny smoke size (four cores, a few ops per workload).
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import batches  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pass(workload: str, seed: int = 1, tracer=None, batch=None):
    batch = batch or batches.build(workload, seed, tiny=True)
    return batch, run.run_pass(batch, tracer)


@pytest.mark.parametrize("workload", batches.WORKLOADS)
def test_tiny_smoke_run(workload):
    declared = {metric["name"]: metric["unit"]
                for metric in SPEC["end_to_end"]}
    result = _result(_invoke("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "0", "--tiny"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    declared = {metric["name"]: metric["unit"]
                for metric in SPEC["per_layer"]}
    result = _result(_invoke("--workload", "litmus_conform", "--seed", "3",
                             "--seconds", "1", "--trace", "1", "--tiny"))
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared


def test_printed_names_are_declared_and_well_formed():
    for group, specs in (("end_to_end", metrics.END_TO_END),
                         ("per_layer", metrics.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in SPEC[group]]
        assert declared == list(specs)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(batches.WORKLOADS) \
        == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((BENCH / "layers.json").read_text())
    workloads = set(batches.WORKLOADS)
    for name, __, __ in metrics.PER_LAYER:
        entry = layer_map["metrics"][name]
        assert entry["moves"] is None or entry["moves"] in \
            {m["name"] for m in SPEC["end_to_end"]} \
            | {n for n, __, __ in metrics.PARTIAL}
        assert entry["workload"] in workloads
        assert set(entry["seed"]) == workloads
    assert set(layer_map["trace_overhead"]) == workloads


def test_percentile_needs_ten_samples_beyond():
    assert metrics.percentile(list(range(199)), 0.95) is None
    assert metrics.percentile(list(range(200)), 0.95) == 189
    assert metrics.percentile(list(range(1000)), 0.99) == 989
    assert metrics.percentile(list(range(999)), 0.99) is None
    assert metrics.percentile([], 0.5) is None
    assert metrics.percentile(list(range(20)), 0.5) == 9


def test_injected_failing_op_raises_failed_frac():
    batch = batches.build("fig10_grid", 1, tiny=True)
    first = batch.jobs[0]
    params = dataclasses.replace(first.cell.params, watchdog_cycles=5)
    broken = batches.CellJob(
        first.engine, dataclasses.replace(first.cell, params=params),
        first.backend)
    batch = dataclasses.replace(batch, jobs=[broken] + batch.jobs[1:])
    __, rec = _pass("fig10_grid", batch=batch)
    assert metrics.partial_metrics([rec])["failed_frac"] == \
        pytest.approx(1 / len(batch.jobs))
    assert "DeadlockError" in rec.ops[0].detail
    assert run.problems(batch, [rec])

    __, clean = _pass("fig10_grid")
    assert metrics.partial_metrics([clean])["failed_frac"] == 0
    assert not run.problems(batch, [clean])


@pytest.mark.parametrize("workload", batches.WORKLOADS)
def test_self_times_and_other_sum_to_traced_wall(workload):
    batch, untraced = _pass(workload)
    __, traced = _pass(workload, tracer=tracing.Tracer(), batch=batch)
    values = metrics.per_layer(untraced, traced, batch.generate_s)
    claimed = sum(values[name] for name in metrics.SELF_TIME_METRICS)
    assert all(values[name] >= 0 for name in metrics.SELF_TIME_METRICS)
    assert values["other_s"] >= 0
    assert claimed + values["other_s"] == pytest.approx(traced.wall_s,
                                                        rel=1e-3)
    # Tracing must not change what is simulated.
    assert [op.simulated() for op in traced.ops] == \
        [op.simulated() for op in untraced.ops]
    # Core and private cache are split, not folded together.
    if workload != "litmus_conform":
        assert values["core.self_s"] > 0
        assert values["coherence.cache.self_s"] > 0


@pytest.mark.parametrize("workload", ["fig10_grid", "shared_backends"])
def test_seed_reaches_the_generators(workload):
    def cycles(seed):
        __, rec = _pass(workload, seed)
        return [op.simulated() for op in rec.ops]

    first = cycles(11)
    assert cycles(11) == first
    assert sum(op[2] for op in cycles(12)) != sum(op[2] for op in first)


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _invoke("--workload", "fig10_grid", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
