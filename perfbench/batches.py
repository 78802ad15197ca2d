"""The benchmark's workloads, built only from public entry points.

* ``fig10_grid``: ``repro bench``'s nine-workload ``DEFAULT_BENCH_SET``
  x {in-order, ooo, ooo-wb} on the baseline backend, one
  ``ExperimentEngine(workers=0)`` cell per op, every cell TSO-checked.
* ``shared_backends``: four write-shared workloads, two generated
  programs each, x {baseline, tardis, rcp} in commit mode ooo (the one
  all three backends support).
* ``litmus_conform``: ``run_conformance(explore=True)`` over the whole
  corpus under each backend; an op is one corpus test, plus one op per
  backend for its ``SCENARIO_SETS`` explorations.

All grid cells are SLM cores on a 16-tile mesh and start from empty
caches.  The seed feeds the workload generators' ``seed=`` and
``run_conformance(seed=)`` (the perturbation delays), nothing else.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.common.params import table6_system
from repro.common.types import CommitMode
from repro.conform.runner import default_mode_for, load_corpus, run_conformance
from repro.conform.scenarios import SCENARIO_SETS
from repro.exp.bench import DEFAULT_BENCH_SET
from repro.exp.cells import Cell
from repro.exp.engine import ExperimentEngine
from repro.workloads import ALL_WORKLOADS

from metrics import BACKENDS
from tracing import Recorder

GRID_MODES = (CommitMode.IN_ORDER, CommitMode.OOO, CommitMode.OOO_WB)
SHARED_SET = ("streamcluster", "x264", "radix", "ocean_ncp")
CORES = 16
TINY_CORES = 4
CORE_CLASS = "SLM"
#: Generator scale of the grid workloads; the tiny smoke size also
#: drops to four cores.
GRID_SCALE = 0.5
SHARED_SCALE = 0.3
#: Generated programs per shared_backends workload: 24 cells a pass, so
#: neither the totals nor the median hang on one program per name.
SHARED_COPIES = 2
TINY_SCALE = 0.05
#: Cycle cap on every cell, over ten times any cell's length, so that
#: a protocol livelock fails its op instead of hanging the run.  rcp
#: livelocks on the lock-heavy canneal and fluidanimate for some seeds,
#: which is why SHARED_SET has x264 where the paper's list has canneal.
MAX_CYCLES = 100_000
#: Corpus tests per backend in the tiny smoke size.
TINY_TESTS = 3


class CellJob:
    """One experiment-engine cell; one op."""

    def __init__(self, engine: ExperimentEngine, cell: Cell,
                 backend: str) -> None:
        self.engine = engine
        self.cell = cell
        self.backend = backend

    def run(self, rec: Recorder) -> None:
        rec.begin_op("cell", self.backend)
        try:
            result = self.engine.run([self.cell]).outcomes[0].result
        except Exception as exc:  # op boundary: record and go on
            rec.end_op(self.cell.key, ok=False,
                       detail=f"{type(exc).__name__}: {exc}")
            return
        metered = rec.current.cycles
        ok = result.cycles == metered
        rec.end_op(self.cell.key, ok=ok, detail="" if ok else
                   f"engine reports {result.cycles} cycles, the run "
                   f"simulated {metered}")


class ConformJob:
    """``run_conformance`` under one backend: one op per corpus test,
    then one op for the backend's explorations."""

    def __init__(self, tests: Sequence, backend: str, seed: int, *,
                 explore: bool = True) -> None:
        self.tests = list(tests)
        self.backend = backend
        self.seed = seed
        self.explore = explore

    def run(self, rec: Recorder) -> None:
        backend = self.backend

        def progress(report) -> None:
            detail = "; ".join(v.detail for v in report.violations[:3])
            rec.end_op(f"{report.name}/{backend}", ok=report.ok,
                       detail=detail,
                       facts={"operational_outcomes": report.operational_count,
                              "axiomatic_outcomes": report.axiomatic_count})
            rec.begin_op("test", backend)

        rec.begin_op("test", backend)
        try:
            result = run_conformance(
                self.tests, mode=default_mode_for(backend), backend=backend,
                seed=self.seed, explore=self.explore, progress=progress)
        except Exception as exc:  # op boundary: record and go on
            rec.end_op(f"crash/{backend}", ok=False,
                       detail=f"{type(exc).__name__}: {exc}")
            return
        if not self.explore:
            rec.discard_op()  # the op opened after the last test
            return
        infos = result.explorations
        expected = set(SCENARIO_SETS.get(backend, {}))
        bad = sorted(name for name, info in infos.items() if not info["ok"])
        missing = sorted(expected - set(infos))
        totals = {key: sum(info[key] for info in infos.values())
                  for key in ("states", "transitions", "deduplicated",
                              "sleep_pruned")}
        rec.end_op(f"explore/{backend}", kind="explore",
                   ok=not bad and not missing, facts=totals,
                   detail=f"failed {bad}, missing {missing}"
                   if bad or missing else "")


@dataclass
class Batch:
    """A workload's fixed list of jobs; one pass runs every job once."""

    workload: str
    jobs: List
    #: Runs the untimed warm-up op(s) into a recorder.
    warmup: Callable[[Recorder], None]
    ops_per_pass: int
    #: Host seconds spent in the workload generators building the jobs.
    generate_s: float = 0.0

    def run_pass(self, rec: Recorder) -> None:
        for job in self.jobs:
            job.run(rec)


def _cell_batch(workload: str, seed: int, names: Sequence[str],
                scale: float, configs, copies: int, tiny: bool) -> Batch:
    """One cell per generated workload and (commit mode, backend).

    Each name is generated *copies* times, with generator seeds
    ``seed * copies + k``: distinct across benchmark seeds, and equal to
    the benchmark seed itself when ``copies == 1``.
    """
    cores, scale = (TINY_CORES, TINY_SCALE) if tiny else (CORES, scale)
    start = time.perf_counter()
    traces = {(name, k): ALL_WORKLOADS[name](cores, scale,
                                             seed=seed * copies + k).traces
              for name in names for k in range(copies)}
    generate_s = time.perf_counter() - start
    engine = ExperimentEngine(workers=0)
    jobs = []
    for (name, k), program in traces.items():
        for mode, backend in configs:
            params = dataclasses.replace(
                table6_system(CORE_CLASS, num_cores=cores, commit_mode=mode,
                              backend=backend),
                max_cycles=MAX_CYCLES)
            key = f"{name}.{k}/{backend}/{mode.value}"
            cell = Cell.from_traces(key, name, program, params, check=True)
            jobs.append(CellJob(engine, cell, backend))
    return Batch(workload, jobs, jobs[0].run, len(jobs), generate_s)


def fig10_grid(seed: int, *, tiny: bool = False) -> Batch:
    names = DEFAULT_BENCH_SET[:2] if tiny else DEFAULT_BENCH_SET
    return _cell_batch("fig10_grid", seed, names, GRID_SCALE,
                       [(mode, "baseline") for mode in GRID_MODES], 1, tiny)


def shared_backends(seed: int, *, tiny: bool = False) -> Batch:
    names = SHARED_SET[1::2] if tiny else SHARED_SET
    return _cell_batch("shared_backends", seed, names, SHARED_SCALE,
                       [(CommitMode.OOO, backend) for backend in BACKENDS],
                       1 if tiny else SHARED_COPIES, tiny)


def litmus_conform(seed: int, *, tiny: bool = False) -> Batch:
    tests = load_corpus()
    if tiny:
        tests = tests[:TINY_TESTS]
    jobs = [ConformJob(tests, backend, seed) for backend in BACKENDS]

    def warmup(rec: Recorder) -> None:
        for backend in BACKENDS:
            ConformJob(tests[:1], backend, seed, explore=False).run(rec)

    return Batch("litmus_conform", jobs, warmup,
                 len(BACKENDS) * (len(tests) + 1))


BUILDERS = {"fig10_grid": fig10_grid, "shared_backends": shared_backends,
            "litmus_conform": litmus_conform}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, *, tiny: bool = False) -> Batch:
    return BUILDERS[workload](seed, tiny=tiny)

