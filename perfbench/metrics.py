"""Metric definitions and their computation from recorded passes.

End-to-end metrics come from untraced passes, per-layer metrics from one
traced pass plus the untraced pass it is compared against.  Every
metric is defined on every workload: a layer a workload never enters
reads 0, and a rate with nothing to rate reads 0.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import OpRecord, Recorder

BACKENDS = ("baseline", "tardis", "rcp")

#: Gated end-to-end metrics: (name, unit, better).  BENCHMARK.json
#: carries the same list with each metric's regression bound.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("sim_cycles_per_s", "cycles/s", "higher"),
    ("sim_cycles_per_s.baseline", "cycles/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles", "cycles", "lower"),
    ("batch_s", "s", "lower"),
)

#: End-to-end numbers that exist on only some workloads.  They are
#: printed on every run and reported, ungated, with the per-layer set.
PARTIAL: Tuple[Tuple[str, str, str], ...] = (
    ("sim_cycles_per_s.tardis", "cycles/s", "higher"),
    ("sim_cycles_per_s.rcp", "cycles/s", "higher"),
    ("tests_per_s", "1/s", "higher"),
    ("states_per_s", "1/s", "higher"),
    ("op_s_p95", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
)

#: Layers whose self time is also split per backend.
SIM_LAYERS = ("core", "coherence.cache", "coherence.directory", "network",
              "event_queue")

#: Host self time: (metric, traced layer).
_SELF_TIMES = (
    ("core.self_s", "core"),
    ("coherence.cache.self_s", "coherence.cache"),
    ("coherence.directory.self_s", "coherence.directory"),
    ("network.self_s", "network"),
    ("event_queue.self_s", "event_queue"),
    ("sim.run_s", "sim.run"),
    ("sim.build_s", "sim.build"),
    ("consistency.check_tso_s", "consistency.check_tso"),
    ("exp.normalize_s", "exp.normalize"),
    ("conform.operational_s", "conform.operational"),
    ("conform.axiomatic_s", "conform.axiomatic"),
    ("verification.fork_s", "verification.fork"),
    ("verification.fingerprint_s", "verification.fingerprint"),
    ("verification.deliver_s", "verification.deliver"),
)

#: Self-time metrics of every traced layer; with ``other_s`` they
#: partition the traced wall time.
SELF_TIME_METRICS = tuple(name for name, __ in _SELF_TIMES)

#: Boundary crossings: (metric, traced layer).
_CALLS = (
    ("core.calls", "core"),
    ("coherence.cache.calls", "coherence.cache"),
    ("coherence.directory.calls", "coherence.directory"),
    ("network.calls", "network"),
    ("sim.builds", "sim.build"),
    ("consistency.check_tso_calls", "consistency.check_tso"),
)

#: Simulated counters summed over every simulation: (metric, counter).
_COUNTED = (
    ("core.committed", "core.committed"),
    ("core.stall_rob", "core.stall_rob"),
    ("core.stall_lq", "core.stall_lq"),
    ("core.stall_sq", "core.stall_sq"),
    ("core.stall_other", "core.stall_other"),
    ("core.consistency_squashes", "core.consistency_squashes"),
    ("core.lockdown_invalidations", "core.lockdown_invalidations"),
    ("coherence.directory.writes_blocked", "dir.writes_blocked"),
    ("network.flits", "network.flits"),
    ("network.link_queue_cycles", "network.link_queue_cycles"),
    ("coherence.tardis.renewals", "tardis.renewals"),
    ("coherence.tardis.recalls", "tardis.recalls"),
    ("coherence.rcp.reversals", "rcp.reversals"),
)


def _per_layer_specs() -> List[Tuple[str, str, str]]:
    specs = [(name, "s", "lower") for name, __ in _SELF_TIMES]
    specs += [(f"{layer}.self_s.{backend}", "s", "lower")
              for layer in SIM_LAYERS for backend in BACKENDS]
    specs += [("workloads.generate_s", "s", "lower"),
              ("other_s", "s", "lower"),
              ("traced_wall_s", "s", "lower"),
              ("trace_overhead", "ratio", "lower"),
              ("sim.host_ns_per_event", "ns", "lower")]
    specs += [(name, "count", "lower") for name, __ in _CALLS]
    specs += [("event_queue.fired", "count", "lower"),
              ("conform.operational_outcomes", "count", "lower"),
              ("conform.axiomatic_outcomes", "count", "lower"),
              ("verification.transitions", "count", "lower"),
              ("verification.memo_hit_rate", "ratio", "higher"),
              ("verification.sleep_prune_ratio", "ratio", "higher")]
    specs += [(name, "count",
               "higher" if name == "core.committed" else "lower")
              for name, __ in _COUNTED]
    specs += [("coherence.cache.load_hit_rate", "ratio", "higher"),
              ("coherence.cache.tearoff_useful", "ratio", "higher"),
              ("coherence.rcp.confirm_ratio", "ratio", "higher")]
    return specs + list(PARTIAL)


PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer_specs())
UNITS: Dict[str, str] = {name: unit for name, unit, __ in
                         END_TO_END + PER_LAYER}


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank *q*-quantile, or None unless at least ten samples
    lie beyond it (the highest percentile a sample size supports)."""
    n = len(values)
    rank = math.ceil(round(q * n, 9))
    if n == 0 or n - rank < 10:
        return None
    return sorted(values)[max(rank, 1) - 1]


def hd_median(values: Sequence[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of every order statistic, the weights being the
    Beta((n+1)/2, (n+1)/2) mass over each one's share of [0, 1].  With a
    few dozen unequal ops (the grid workloads) the sample median jumps
    from one op to its neighbour as seeds change the ops slightly; this
    estimate moves smoothly.  The mass is integrated by the midpoint
    rule in log space.
    """
    xs = sorted(values)
    n = len(xs)
    shape = (n + 1) / 2
    log_norm = 2 * math.lgamma(shape) - math.lgamma(2 * shape)
    steps = max(4000, 20 * n)
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[int(t * n)] += math.exp(
            (shape - 1) * (math.log(t) + math.log1p(-t)) - log_norm)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sim_ops(ops: Sequence[OpRecord]) -> List[OpRecord]:
    """Ops that simulate: grid cells and corpus tests."""
    return [op for op in ops if op.kind != "explore"]


def _throughput(ops: Sequence[OpRecord], backend: Optional[str] = None
                ) -> float:
    chosen = [op for op in _sim_ops(ops)
              if backend is None or op.backend == backend]
    return _ratio(sum(op.cycles for op in chosen),
                  sum(op.seconds for op in chosen))


def partial_metrics(passes: Sequence[Recorder]) -> Dict[str, float]:
    """The :data:`PARTIAL` numbers over every op of *passes*."""
    ops = [op for rec in passes for op in rec.ops]
    tests = [op for op in ops if op.kind == "test"]
    explores = [op for op in ops if op.kind == "explore"]
    p95 = percentile([op.seconds for op in _sim_ops(ops)], 0.95)
    return {
        "sim_cycles_per_s.tardis": _throughput(ops, "tardis"),
        "sim_cycles_per_s.rcp": _throughput(ops, "rcp"),
        "tests_per_s": _ratio(len(tests), sum(op.seconds for op in tests)),
        "states_per_s": _ratio(sum(op.facts.get("states", 0)
                                   for op in explores),
                               sum(op.seconds for op in explores)),
        "op_s_p95": 0.0 if p95 is None else p95,
        "failed_frac": _ratio(sum(not op.ok for op in ops), len(ops)),
    }


def end_to_end(passes: Sequence[Recorder], setup_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    """Gated metrics over untraced *passes* (at least one)."""
    ops = [op for rec in passes for op in rec.ops]
    return {
        "setup_s": setup_s,
        "sim_cycles_per_s": _throughput(ops),
        "sim_cycles_per_s.baseline": _throughput(ops, "baseline"),
        "op_s_p50": hd_median([op.seconds for op in _sim_ops(ops)]),
        "peak_rss_mb": peak_rss_mb,
        "sim_cycles": float(sum(op.cycles for op in passes[0].ops)),
        "batch_s": statistics.median(rec.wall_s for rec in passes),
    }


def layer_totals(ops: Sequence[OpRecord], backend: Optional[str] = None
                 ) -> Dict[str, List]:
    """layer -> [self seconds, calls] summed over traced *ops*."""
    totals: Dict[str, List] = {}
    for op in ops:
        if backend is not None and op.backend != backend:
            continue
        for layer, (self_s, calls) in op.layers.items():
            slot = totals.setdefault(layer, [0.0, 0])
            slot[0] += self_s
            slot[1] += calls
    return totals


def other_seconds(traced: Recorder) -> float:
    """Traced wall time no layer claims: op time outside every layer
    span plus the time between ops."""
    return (sum(op.unclaimed_s for op in traced.ops)
            + traced.wall_s - sum(op.seconds for op in traced.ops))


def per_layer(untraced: Recorder, traced: Recorder,
              generate_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass against its untraced twin."""
    ops = traced.ops
    totals = layer_totals(ops)
    out: Dict[str, float] = {}
    for name, layer in _SELF_TIMES:
        out[name] = totals.get(layer, [0.0, 0])[0]
    for backend in BACKENDS:
        split = layer_totals(ops, backend)
        for layer in SIM_LAYERS:
            out[f"{layer}.self_s.{backend}"] = split.get(layer, [0.0, 0])[0]
    fired = sum(op.fired for op in ops)
    out.update({
        "workloads.generate_s": generate_s,
        "other_s": other_seconds(traced),
        "traced_wall_s": traced.wall_s,
        "trace_overhead": _ratio(traced.wall_s, untraced.wall_s),
        "sim.host_ns_per_event": 1e9 * _ratio(
            sum(op.seconds for op in _sim_ops(untraced.ops)), fired),
    })
    for name, layer in _CALLS:
        out[name] = float(totals.get(layer, [0.0, 0])[1])

    def fact(key: str) -> int:
        return sum(op.facts.get(key, 0) for op in ops)

    def counter(key: str) -> int:
        return sum(op.counters.get(key, 0) for op in ops)

    out.update({
        "event_queue.fired": float(fired),
        "conform.operational_outcomes": float(fact("operational_outcomes")),
        "conform.axiomatic_outcomes": float(fact("axiomatic_outcomes")),
        "verification.transitions": float(fact("transitions")),
        "verification.memo_hit_rate": _ratio(
            fact("deduplicated"), fact("states") + fact("deduplicated")),
        "verification.sleep_prune_ratio": _ratio(
            fact("sleep_pruned"), fact("transitions") + fact("sleep_pruned")),
    })
    for name, key in _COUNTED:
        out[name] = float(counter(key))
    used, unusable = counter("cache.tearoffs_used"), \
        counter("cache.tearoffs_unusable")
    out.update({
        "coherence.cache.load_hit_rate": _ratio(counter("cache.load_hits"),
                                                counter("cache.loads")),
        "coherence.cache.tearoff_useful": _ratio(used, used + unusable),
        "coherence.rcp.confirm_ratio": _ratio(counter("rcp.confirms"),
                                              counter("rcp.spec_reads")),
    })
    out.update(partial_metrics([untraced]))
    return out
