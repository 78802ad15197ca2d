"""Op records, the simulation meter and the layer tracer.

Everything here patches the simulator from outside, for the length of
one pass, and restores it afterwards:

* :func:`metered` wraps ``MulticoreSystem.run`` in every pass (one call
  per simulation, so its cost is negligible) and adds each run's
  simulated cycles, fired events and selected counters to the op being
  recorded.  It is how the benchmark sees simulations that public entry
  points such as ``run_conformance`` build internally.
* :func:`traced` wraps the public functions at each layer boundary (see
  :func:`boundaries`) so a :class:`Tracer` can split host time into
  per-layer *self* time: a span's duration minus its child spans.
  Callbacks a layer schedules on the event queue run under that layer's
  span, so ``event_queue`` keeps only the dispatch itself.  Nested calls
  into the layer already on top of the stack are not split again, so a
  layer's ``calls`` count crossings of its boundary.

Fine-grained spans (one ``core.tick`` per core per cycle) are folded
into per-op totals as they close; only op-level spans are kept.
"""

from __future__ import annotations

import contextlib
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Clock = Callable[[], float]

#: Counters summed from every simulation's ``SimResult.stats``.
COUNTERS = (
    "core.committed", "core.stall_rob", "core.stall_lq", "core.stall_sq",
    "core.stall_other", "core.consistency_squashes",
    "core.lockdown_invalidations", "cache.tearoffs_used",
    "cache.tearoffs_unusable", "dir.writes_blocked", "network.flits",
    "network.link_queue_cycles", "tardis.renewals", "tardis.recalls",
    "rcp.reversals", "rcp.confirms", "rcp.spec_reads",
)

#: Per-cache counters (``cache<N>.<suffix>``) summed over every cache.
PER_CACHE = ("load_hits", "loads")

#: Layers whose scheduled callbacks run under their own span.
CALLBACK_LAYERS = frozenset({"core", "coherence.cache",
                             "coherence.directory", "network"})


@dataclass
class OpRecord:
    """One op: a grid cell, a corpus test, or one backend's explorations."""

    kind: str
    backend: str
    name: str = ""
    seconds: float = 0.0
    ok: bool = True
    detail: str = ""
    cycles: int = 0
    sims: int = 0
    fired: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    #: Extra integer facts (outcome counts, explorer statistics).
    facts: Dict[str, int] = field(default_factory=dict)
    #: Traced passes only: layer -> [self seconds, boundary calls].
    layers: Dict[str, List] = field(default_factory=dict)
    #: Traced passes only: op time no layer claimed.
    unclaimed_s: float = 0.0

    def simulated(self) -> Tuple:
        """Everything deterministic about the op, for exact comparison."""
        return (self.name, self.ok, self.cycles, self.sims, self.fired,
                tuple(sorted(self.counters.items())),
                tuple(sorted(self.facts.items())))

    def span(self) -> Dict:
        return {"name": self.name, "kind": self.kind,
                "backend": self.backend, "seconds": self.seconds,
                "ok": self.ok, "cycles": self.cycles,
                "unclaimed_s": self.unclaimed_s,
                "layers": {layer: {"self_s": slot[0], "calls": slot[1]}
                           for layer, slot in sorted(self.layers.items())}}


class Tracer:
    """Stack-based self-time accounting, folded per op."""

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        self.stack: List[List] = []  # frames: [layer, start, child_s]
        self.acc: Dict[str, List] = {}

    def wrap(self, layer: str, fn: Callable, *,
             count: bool = True) -> Callable:
        """Return *fn* recording a *layer* span around each call."""
        stack = self.stack
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                slot = tracer.acc.get(layer)
                if slot is None:
                    slot = tracer.acc[layer] = [0.0, 0]
                slot[0] += elapsed - frame[2]
                if count:
                    slot[1] += 1
                if stack:
                    stack[-1][2] += elapsed

        traced.__wrapped__ = fn
        return traced

    def current_layer(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack else None

    def begin_op(self) -> None:
        self.acc = {}
        self.stack.append(["op", self.clock(), 0.0])

    def end_op(self) -> Tuple[Dict[str, List], float]:
        """Close the op span; returns (layer totals, unclaimed seconds)."""
        frame = self.stack.pop()
        elapsed = self.clock() - frame[1]
        acc, self.acc = self.acc, {}
        return acc, elapsed - frame[2]


class Recorder:
    """Collects the op records of one pass."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 clock: Clock = time.perf_counter) -> None:
        self.tracer = tracer
        self.clock = clock
        self.ops: List[OpRecord] = []
        self.current: Optional[OpRecord] = None
        self.wall_s = 0.0
        self._t0 = 0.0

    def begin_op(self, kind: str, backend: str) -> None:
        self.current = OpRecord(kind=kind, backend=backend)
        if self.tracer is not None:
            self.tracer.begin_op()
        self._t0 = self.clock()

    def end_op(self, name: str, *, ok: bool = True, detail: str = "",
               kind: Optional[str] = None,
               facts: Optional[Dict[str, int]] = None) -> OpRecord:
        record = self.current
        record.seconds = self.clock() - self._t0
        if self.tracer is not None:
            record.layers, record.unclaimed_s = self.tracer.end_op()
        record.name = name
        record.ok = ok
        record.detail = detail
        if kind is not None:
            record.kind = kind
        if facts:
            for key, value in facts.items():
                record.facts[key] = record.facts.get(key, 0) + value
        self.ops.append(record)
        self.current = None
        return record

    def discard_op(self) -> None:
        """Drop the open op without recording it."""
        if self.tracer is not None:
            self.tracer.end_op()
        self.current = None

    def on_sim(self, system, result) -> None:
        """Meter hook: fold one finished simulation into the current op."""
        record = self.current
        if record is None:
            return
        record.cycles += result.cycles
        record.sims += 1
        record.fired += system.events.fired_total
        counters = record.counters
        stats = result.stats
        for name in COUNTERS:
            value = stats.get(name)
            if value:
                counters[name] = counters.get(name, 0) + value
        for name, value in stats.items():
            if name.startswith("cache") and value:
                suffix = name.rpartition(".")[2]
                if suffix in PER_CACHE and name[5:6].isdigit():
                    key = "cache." + suffix
                    counters[key] = counters.get(key, 0) + value


_MISSING = object()


@contextlib.contextmanager
def patched(patches) -> Iterator[None]:
    """Apply ``(owner, attribute, replacement)`` patches; undo on exit."""
    undo = []
    try:
        for owner, attr, replacement in patches:
            own = (vars(owner).get(attr, _MISSING)
                   if isinstance(owner, type) else getattr(owner, attr))
            undo.append((owner, attr, own))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, own in reversed(undo):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def metered(recorder: Recorder):
    """Patch ``MulticoreSystem.run`` to report each run to *recorder*."""
    from repro.sim.system import MulticoreSystem

    run = MulticoreSystem.run

    def metered_run(system):
        result = run(system)
        recorder.on_sim(system, result)
        return result

    return patched([(MulticoreSystem, "run", metered_run)])


def boundaries():
    """Yield ``(layer, owner, attribute, counted)`` for every boundary."""
    import repro.consistency.litmus as litmus
    import repro.conform.differential as differential
    import repro.exp.engine as engine
    import repro.sim.runner as runner
    from repro.coherence.directory import DirectoryBank
    from repro.coherence.private_cache import PrivateCache
    from repro.coherence.rcp import RcpCache, RcpDirectory
    from repro.coherence.tardis import TardisCache, TardisDirectory
    from repro.common.event_queue import EventQueue
    from repro.core.inorder_core import InOrderCore
    from repro.core.ooo_core import OoOCore
    from repro.network.mesh import MeshNetwork
    from repro.sim.results import SimResult
    from repro.sim.system import MulticoreSystem
    from repro.verification.explorer import BufferingNetwork, VerifSystem

    for core in (OoOCore, InOrderCore):
        yield "core", core, "tick", True
    for cache in (PrivateCache, TardisCache, RcpCache):
        for attr in ("handle_message", "load", "request_write",
                     "perform_store", "perform_atomic", "line_state",
                     "write_blocked", "has_write_mshr", "line_entry"):
            yield "coherence.cache", cache, attr, True
    for directory in (DirectoryBank, TardisDirectory, RcpDirectory):
        yield "coherence.directory", directory, "handle_message", True
    yield "network", MeshNetwork, "send", True
    yield "event_queue", EventQueue, "run_due", True
    yield "sim.run", MulticoreSystem, "run", True
    yield "sim.build", MulticoreSystem, "__init__", True
    yield "sim.build", MulticoreSystem, "load_program", False
    yield "consistency.check_tso", runner, "check_tso", True
    yield "consistency.check_tso", litmus, "check_tso", True
    yield "exp.normalize", SimResult, "to_json", True
    yield "exp.normalize", engine, "_normalized", False
    yield "conform.operational", differential, "operational_outcomes", True
    yield "conform.axiomatic", differential, "axiomatic_outcomes", True
    yield "verification.fingerprint", VerifSystem, "fingerprint", True
    yield "verification.deliver", BufferingNetwork, "deliver", True


def traced(tracer: Tracer):
    """Patch every layer boundary to record spans into *tracer*."""
    import copy

    import repro.verification.explorer as explorer
    from repro.common.event_queue import EventQueue

    patches = []
    for layer, owner, attr, counted in boundaries():
        original = (vars(owner)[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        patches.append((owner, attr,
                        tracer.wrap(layer, original, count=counted)))
    # The explorer forks states with ``copy.deepcopy``; give it (and only
    # it) a traced deepcopy instead of patching the copy module itself.
    fork = types.SimpleNamespace(
        deepcopy=tracer.wrap("verification.fork", copy.deepcopy))
    patches.append((explorer, "copy", fork))

    schedule = EventQueue.schedule
    wrap = tracer.wrap

    def tagged_schedule(queue, delay, fn):
        layer = tracer.current_layer()
        if layer in CALLBACK_LAYERS:
            fn = wrap(layer, fn, count=False)
        return schedule(queue, delay, fn)

    patches.append((EventQueue, "schedule", tagged_schedule))
    return patched(patches)
