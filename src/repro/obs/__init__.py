"""repro.obs — the structured telemetry layer.

Seven small modules, one switch:

* :mod:`repro.obs.metrics` — the process-local :class:`MetricsRegistry`
  (counters / gauges / fixed-bucket histograms) and its mergeable,
  picklable :class:`MetricsSnapshot`;
* :mod:`repro.obs.tracing` — nested ``span("...")`` timers building a
  per-task span tree with wall/CPU time and entry counts;
* :mod:`repro.obs.events` — run ids, an optional JSONL event sink
  (flushed per line; ``REPRO_OBS_FSYNC`` adds fsync), and the per-run
  manifest written next to results;
* :mod:`repro.obs.live` — the streaming side: the per-sweep
  :class:`~repro.obs.live.LiveStats` accounting the engine folds every
  sweep event record into, the ``--progress=live`` renderer, the Prometheus
  ``--metrics-port`` endpoint, and the event-stream follower behind
  ``repro tail`` / ``repro top``;
* :mod:`repro.obs.export` — Chrome trace-event JSON export of a sweep's
  distributed task timeline (``--trace-export``, Perfetto-loadable);
* :mod:`repro.obs.profile` — opt-in per-task cProfile with
  flamegraph-ready collapsed-stack output (``--profile``);
* :mod:`repro.obs.log` — the single ``repro`` stdlib-logging hierarchy
  all user-facing text flows through.

``REPRO_OBS=off`` in the environment turns every instrument call into a
no-op — including the live-telemetry piggybacking on executor frames
(``benchmarks/bench_obs_overhead.py`` asserts the instrumented and
streaming paths stay within a small budget of that baseline).

The experiment engine is the integration point: each task runs between
``registry.begin_task()`` / ``end_task()`` so its metric *delta* and
span tree travel back across the process boundary with its result, and
``run_sweep`` merges the per-task snapshots deterministically — a
parallel sweep's merged metrics equal the serial sweep's exactly.
"""

from repro.obs.metrics import (
    BucketHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
    MetricsSnapshot,
    OBS_ENV_VAR,
    enabled,
    get_registry,
    merge_snapshots,
    reset,
    set_enabled,
)
from repro.obs.tracing import span

__all__ = [
    "OBS_ENV_VAR",
    "Counter",
    "Gauge",
    "BucketHistogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "get_registry",
    "merge_snapshots",
    "enabled",
    "set_enabled",
    "reset",
    "span",
]
