"""Per-layer measurement: span wrappers, program counters, engine timings.

:func:`install` wraps the public entry point of every layer in a span
(see the ``layers`` table in ``spec.json``).  :func:`measure` runs one
repetition of a workload and collects, besides its outputs and wall
time, the program's own counters and the engine's sweep timings, summed
over the parent process and every pool sweep (pool workers report
through the per-task metric snapshots the engine merges).  Per-layer
span totals travel the same way, so they include the work done in pool
workers.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field

from repro.common import memo
from repro.core.leading import LeadingCoreTiming
from repro.core.memory import MemoryHierarchy
from repro.core.rmt import RmtSimulator
from repro.experiments import engine
from repro.experiments import report
from repro.experiments import thermal
from repro.obs import events
from repro.obs.metrics import get_registry
from repro.thermal.grid import GridThermalModel
from repro.thermal.hotspot import ChipThermalModel

from benchlib.tracer import Patches, Tracer, span_totals

__all__ = [
    "SPAN_LAYERS",
    "GEOMETRY_COUNTER",
    "Repetition",
    "measure",
    "install",
    "replay",
    "per_layer_metrics",
]

# Span name -> what it wraps; the order is the order metrics are printed.
SPAN_LAYERS = (
    "isa.trace",
    "core.branch.pretrain",
    "core.leading.schedule",
    "cache.preload",
    "core.leading.run",
    "core.rmt.run",
    "thermal.factorize",
    "thermal.solve",
    "floorplan.build",
    "experiments.fig4",
    "experiments.variants",
    "experiments.fig7",
    "experiments.coverage",
    "experiments.tables",
)

_REPORT_EXPERIMENTS = {
    "fig4_thermal_sweep": "experiments.fig4",
    "thermal_variants": "experiments.variants",
    "fig7_frequency_histogram": "experiments.fig7",
    "fault_coverage_campaign": "experiments.coverage",
    "table4_bandwidth": "experiments.tables",
    "table5_pipeline_power": "experiments.tables",
    "table6_variability": "experiments.tables",
    "table7_devices": "experiments.tables",
    "table8_power_ratios": "experiments.tables",
    "fig8_ser_scaling": "experiments.tables",
    "fig9_mbu_curve": "experiments.tables",
    "via_summary": "experiments.tables",
    "section34_wire_analysis": "experiments.tables",
}

# Counter prefix the traced run uses to count distinct stack geometries
# across processes: pool workers ship it back in their task snapshots.
GEOMETRY_COUNTER = "perfbench.grid_geometry."


@dataclass
class Repetition:
    """One timed repetition of a workload."""

    wall_s: float
    outputs: object
    sweeps: list = field(default_factory=list)   # engine.SweepTiming
    counters: dict = field(default_factory=dict)  # parent delta + pools
    spans: list = field(default_factory=list)     # program span trees

    @property
    def operations(self) -> int:
        """Sweep tasks plus thermal solves."""
        return (
            sum(t.tasks for t in self.sweeps)
            + int(self.counters.get("thermal.solves", 0))
        )

    @property
    def task_failures(self) -> int:
        """Sweep tasks that exhausted their attempts."""
        return sum(t.failures for t in self.sweeps)


def _counter_values() -> dict:
    return dict(get_registry().snapshot(spans=False).counters)


def measure(workload, before: dict | None = None) -> Repetition:
    """Run one timed repetition of ``workload``.

    ``before`` is a counter baseline taken earlier (the traced run takes
    it before set-up, so set-up's factorizations are counted).
    """
    before = _counter_values() if before is None else before
    # Start every repetition with the same collector state, so a cyclic
    # collection owed by set-up garbage does not land in one repetition.
    gc.collect()
    start = time.perf_counter()
    outputs = workload.run()
    wall = time.perf_counter() - start
    sweeps = engine.timings(events.current_run_id())
    after = _counter_values()
    counters = {k: v - before.get(k, 0) for k, v in after.items()}
    spans = []
    for t in sweeps:
        if t.metrics is None:
            continue
        if t.metrics.spans:
            spans.append(t.metrics.spans)
        # Inline tasks already counted in this process's registry.
        if t.executor != "inline":
            for k, v in t.metrics.counters.items():
                counters[k] = counters.get(k, 0) + v
    counters = {k: v for k, v in counters.items() if v}
    return Repetition(wall, outputs, sweeps, counters, spans)


def _factorize(tracer: Tracer):
    """Wrap ``GridThermalModel.__init__``, where the LU factorization
    runs, in a span, and count the stack geometry it factorizes."""
    def wrap(init):
        traced = tracer.wrap(init, "thermal.factorize")

        @functools.wraps(init)
        def counted(self, *args, **kwargs):
            key = repr((args, sorted(kwargs.items())))
            digest = hashlib.sha1(key.encode()).hexdigest()[:12]
            get_registry().counter(GEOMETRY_COUNTER + digest).inc()
            return traced(self, *args, **kwargs)

        return counted

    return wrap


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer's public entry point in a span of ``tracer``."""
    def span(name):
        return lambda fn: tracer.wrap(fn, name)

    cache = memo.ArtifactCache
    patches.method(cache, "trace_arrays", span("isa.trace"))
    patches.method(cache, "prime_trace_batch", span("isa.trace"))
    patches.method(cache, "branch_stream_view", span("core.branch.pretrain"))
    patches.method(cache, "trace_schedule", span("core.leading.schedule"))
    patches.method(MemoryHierarchy, "preload_profile", span("cache.preload"))
    patches.method(LeadingCoreTiming, "run", span("core.leading.run"))
    patches.method(RmtSimulator, "run", span("core.rmt.run"))
    patches.method(ChipThermalModel, "solve", span("thermal.solve"))
    patches.method(GridThermalModel, "__init__", _factorize(tracer))
    patches.function(thermal.standard_floorplan, span("floorplan.build"))
    for attr, name in _REPORT_EXPERIMENTS.items():
        patches.function(getattr(report, attr), span(name))


def replay(workload, tracer: Tracer) -> Repetition:
    """Set up and run ``workload`` again from a cold cache, with every
    layer's entry point inside a span of ``tracer``."""
    memo.clear_cache()
    before = _counter_values()
    with Patches() as patches:
        install(tracer, patches)
        with tracer.span("workload"):
            with tracer.span("workload.setup"):
                workload.setup()
            with tracer.span("workload.run"):
                return measure(workload, before=before)


def _program_span(trees, name: str) -> dict:
    total = {"wall_s": 0.0, "cpu_s": 0.0, "count": 0}

    def walk(node):
        for child_name, child in node.get("children", {}).items():
            if child_name == name:
                for key in total:
                    total[key] += child[key]
            walk(child)

    for tree in trees:
        walk(tree)
    return total


def per_layer_metrics(traced: Repetition, untraced: list[Repetition],
                      workload) -> dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Layer times come from ``traced``'s span counters, summed over the
    parent and every pool worker; self time is per process, so a parent
    span that waits on a pool keeps the wait as self time.  ``untraced``
    are the repetitions run without spans around the traced one; engine
    figures, throughput and the tracing overhead use them.
    """
    out: dict[str, tuple] = {}
    for layer in SPAN_LAYERS:
        row = span_totals(traced.counters, layer)
        out[f"{layer}_s"] = (row["wall_s"], "s")
        out[f"{layer}_self_s"] = (row["self_s"], "s")
        out[f"{layer}_cpu_s"] = (row["cpu_s"], "s")
        out[f"{layer}_calls"] = (row["calls"], "count")

    c = traced.counters
    drain = _program_span(traced.spans, "rmt.consume_window")
    out["core.checker.drain_s"] = (drain["wall_s"], "s")
    out["core.checker.drain_cpu_s"] = (drain["cpu_s"], "s")
    out["core.checker.drain_calls"] = (drain["count"], "count")
    windows = c.get("rmt.consume_windows", 0)
    out["core.checker.rows_per_drain"] = (
        c.get("rmt.consume_window_rows", 0) / windows if windows else 0.0,
        "rows",
    )
    hits, misses = c.get("memo.preload.hits", 0), c.get("memo.preload.misses", 0)
    out["memo.preload.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio"
    )
    factorizations = c.get("thermal.factorizations", 0)
    geometries = sum(1 for k in c if k.startswith(GEOMETRY_COUNTER))
    out["thermal.factorizations"] = (factorizations, "count")
    out["thermal.solves"] = (c.get("thermal.solves", 0), "count")
    out["thermal.factorize_useful_ratio"] = (
        geometries / factorizations if factorizations else 0.0, "ratio"
    )

    sweeps = untraced[0].sweeps
    wall = sum(t.wall_s for t in sweeps)
    task = sum(t.cpu_s for t in sweeps)
    capacity = sum(t.jobs * t.wall_s for t in sweeps)
    out["engine.overhead_s"] = (
        sum(t.wall_s - t.cpu_s / t.jobs for t in sweeps), "s"
    )
    out["engine.sweep_wall_s"] = (wall, "s")
    out["engine.pool_busy_ratio"] = (task / capacity if capacity else 0.0, "ratio")

    untraced_s = statistics.median(r.wall_s for r in untraced)
    out["tracing.overhead_s"] = (traced.wall_s - untraced_s, "s")
    instructions = workload.sim_instructions()
    out["sim_minstr_per_s"] = (instructions / untraced_s / 1e6, "Minstr/s")
    return out
