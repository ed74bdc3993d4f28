"""Live sweep telemetry: one accounting fold, renderers, and scraping.

Everything in :mod:`repro.obs` up to this module is *post-hoc*: per-task
:class:`~repro.obs.metrics.MetricsSnapshot` deltas merge at sweep end
into ``SweepTiming.metrics`` and render in a static report.  This module
is the *while-it-runs* layer, and it owns the sweep's accounting.

Every fact the engine's scheduler learns — a task committed or failed, a
chunk started, requeued or bisected, a worker lost or respawned, a lease
expired, a duplicate dropped, a task quarantined — becomes one event
record.  The engine writes the record to the JSONL sink (when one is
set) and folds it with :func:`fold_event` into the sweep's
:class:`LiveStats`: tasks done/total, an ETA from a moving-window
completion rate, per-worker health (in-flight chunk, tasks completed,
age of the last message) and the counters of :data:`SWEEP_COUNTERS`.
``SweepTiming``'s counters are read off that fold, and ``repro top``
folds the same records back from the sink, so the in-process view, the
follower and the run manifest cannot disagree.  A task's metric
snapshot rides into the fold as a keyword argument and never reaches
the sink.

The stats are always built.  Only publication is gated: with a consumer
registered and observability on (not ``REPRO_OBS=off``),
:func:`publish` exposes them to three consumers —

* **listeners** (:func:`add_listener`): callbacks invoked on every fold
  and poll tick.  :class:`LiveRenderer` is the built-in one — the CLI's
  ``--progress=live`` ANSI dashboard, drawn by
  :func:`repro.viz.ascii.render_dashboard`;
* a **Prometheus endpoint** (:func:`start_metrics_server`, the CLI's
  ``--metrics-port`` / ``REPRO_METRICS_PORT``): a stdlib
  ``http.server`` daemon thread serving ``GET /metrics`` in text
  exposition format — live sweep gauges, per-worker heartbeat ages, and
  the sweep's folded counters/histograms — scrapeable mid-sweep;
* :func:`current`, the most recent published sweep.

An **event follower** (:class:`EventFollower`) reads another process's
sink for ``repro tail`` and ``repro top``.  It only consumes complete
lines — a partially-written trailing line is left buffered until its
newline arrives (the same torn-line discipline as checkpoint restore).

Determinism contract: the fold is **observation-only** — no scheduling
decision reads it.  The incremental metric fold uses the same
commutative/associative merge operations as :meth:`MetricsSnapshot.merge`
(counters sum, gauges max, histograms bucket-wise), so the displayed
totals are order-independent; and the per-task snapshots are
additionally kept by index so :meth:`LiveStats.merged_metrics` replays
the exact submission-order merge — bit-identical to the sweep's final
``SweepTiming.metrics``, float-valued span times included.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import NamedTuple

from repro.obs import metrics as metrics_mod
from repro.obs.metrics import MetricsSnapshot, merge_snapshots

__all__ = [
    "METRICS_PORT_ENV_VAR",
    "SweepCounter",
    "SWEEP_COUNTERS",
    "WorkerHealth",
    "LiveStats",
    "add_listener",
    "remove_listener",
    "telemetry_active",
    "publish",
    "current",
    "LiveRenderer",
    "MetricsServer",
    "start_metrics_server",
    "stop_metrics_server",
    "get_metrics_server",
    "resolve_metrics_port",
    "render_prometheus",
    "EventFollower",
    "resolve_events_path",
    "fold_event",
    "format_event",
]

METRICS_PORT_ENV_VAR = "REPRO_METRICS_PORT"

#: Completion stamps kept for the moving-window rate (ETA smoothing).
_RATE_WINDOW = 64
#: Seconds of completion history the rate is computed over.
_RATE_HORIZON_S = 30.0
#: Minimum seconds between heartbeat folds on the engine's poll ticks.
_HB_FOLD_INTERVAL_S = 0.2


class WorkerHealth:
    """Live view of one worker: heartbeat age, placement, throughput."""

    __slots__ = ("worker", "age_s", "inflight_chunk", "tasks_done", "lost")

    def __init__(self, worker: str):
        self.worker = worker
        self.age_s = 0.0
        self.inflight_chunk: int | None = None
        self.tasks_done = 0
        self.lost = ""  # reason, once declared dead

    def as_dict(self) -> dict:
        return {
            "worker": self.worker,
            "age_s": round(self.age_s, 3),
            "inflight_chunk": self.inflight_chunk,
            "tasks_done": self.tasks_done,
            "lost": self.lost,
        }


class SweepCounter(NamedTuple):
    """One sweep counter: where it lives and which event counts it.

    ``name`` is the :class:`LiveStats` attribute, the ``as_row`` key and
    the ``repro_sweep_<name>`` gauge; ``field`` the ``SweepTiming``
    attribute and the key in manifest ``sweeps`` rows and the ``sweep``
    event; ``event`` the event kind of which each record adds one.
    """

    name: str
    field: str
    event: str | None
    help: str


#: The sweep counter set.  The three with no event ride on records as
#: fields: ``retries`` and ``timeouts`` on every ``task_done`` /
#: ``task_failed``, ``resumed_tasks`` on ``sweep_begin``.
SWEEP_COUNTERS: tuple[SweepCounter, ...] = (
    SweepCounter("failures", "failures", "task_failed",
                 "Tasks that exhausted every attempt."),
    SweepCounter("resumed", "resumed_tasks", None,
                 "Tasks restored from a checkpoint."),
    SweepCounter("retries", "retries", None,
                 "Failed attempts retried in place."),
    SweepCounter("timeouts", "timeouts", None,
                 "Attempts killed by the per-task timeout."),
    SweepCounter("requeues", "requeues", "chunk_requeued",
                 "Chunks requeued after worker loss or lease expiry."),
    SweepCounter("lost_workers", "lost_workers", "worker_lost",
                 "Workers declared dead."),
    SweepCounter("lease_expiries", "lease_expiries", "lease_expired",
                 "Chunk leases expired at the controller."),
    SweepCounter("duplicate_results", "duplicate_results",
                 "duplicate_result_dropped",
                 "Late or duplicated commits dropped."),
    SweepCounter("respawns", "respawns", "worker_respawned",
                 "Replacement workers spawned after a loss."),
    SweepCounter("respawn_failures", "respawn_failures",
                 "worker_respawn_failed",
                 "Replacement workers that failed to come up."),
    SweepCounter("bisections", "bisections", "chunk_bisected",
                 "Chunks split while isolating a poison task."),
    SweepCounter("quarantined", "quarantined", "task_quarantined",
                 "Tasks quarantined as poisonous."),
)

_COUNTED_BY = {c.event: c.name for c in SWEEP_COUNTERS if c.event}


class LiveStats:
    """Streaming aggregate of one sweep, built by :func:`fold_event`.

    Fold order does not matter: every incremental operation (counter
    sum, gauge max, histogram bucket add, completion count) is
    commutative and associative, so the totals shown mid-sweep are the
    same whatever order worker frames arrive in.  The final
    :meth:`merged_metrics` is bit-identical to the engine's post-hoc
    ``SweepTiming.metrics`` because it replays the same
    submission-order merge over the same per-task snapshots.
    """

    def __init__(self, label: str, total: int, run_id: str = "",
                 backend: str = "", jobs: int = 1):
        self.label = label
        self.run_id = run_id
        self.backend = backend
        self.jobs = jobs
        self.tasks_total = total
        self.tasks_done = 0       # committed outcomes (ok + failed)
        self.tasks_ok = 0
        for counter in SWEEP_COUNTERS:
            setattr(self, counter.name, 0)
        self.finished = False
        self.published = False    # visible to listeners and /metrics
        self.started_mono = time.monotonic()
        self.started_unix = time.time()
        self.workers: dict[str, WorkerHealth] = {}
        # Incrementally folded instrument totals (live view).
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, tuple[tuple[float, ...], list[int]]] = {}
        # Per-index snapshots for the bit-identical final merge.
        self._snapshots: dict[int, MetricsSnapshot] = {}
        self._window: deque = deque(maxlen=_RATE_WINDOW)
        self._last_hb_fold = 0.0

    def _fold_snapshot(self, snap: MetricsSnapshot) -> None:
        for name, value in snap.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in snap.gauges.items():
            prior = self.gauges.get(name)
            self.gauges[name] = value if prior is None else max(prior, value)
        for name, (edges, counts) in snap.histograms.items():
            held = self.histograms.get(name)
            if held is None or held[0] != edges:
                self.histograms[name] = (edges, list(counts))
            else:
                mine = held[1]
                for i, count in enumerate(counts):
                    mine[i] += count

    def _worker(self, worker: str) -> WorkerHealth:
        health = self.workers.get(worker)
        if health is None:
            health = self.workers[worker] = WorkerHealth(worker)
        return health

    def fold_heartbeat(self, heartbeat: dict) -> None:
        """Absorb one normalized ``Executor.heartbeat()`` mapping."""
        for worker, info in heartbeat.items():
            health = self._worker(str(worker))
            health.age_s = float(info.get("age_s", 0.0))
            health.inflight_chunk = info.get("inflight_chunk")

    def tick(self, executor=None) -> None:
        """One engine poll-loop tick: throttled heartbeat fold + notify.

        A no-op unless the stats are published — heartbeats only feed
        the dashboard and the metrics endpoint.
        """
        if not self.published:
            return
        now = time.monotonic()
        if executor is not None and now - self._last_hb_fold >= _HB_FOLD_INTERVAL_S:
            self._last_hb_fold = now
            try:
                self.fold_heartbeat(executor.heartbeat())
            except Exception:
                pass  # observation-only: a backend mid-teardown is fine
        _notify("tick", self)

    # -- derived views -------------------------------------------------
    def rate(self) -> float:
        """Tasks/second over the recent completion window (0 when idle)."""
        if not self._window:
            return 0.0
        now = time.monotonic()
        recent = [t for t in self._window if now - t <= _RATE_HORIZON_S]
        if not recent:
            return 0.0
        span = now - recent[0]
        if span <= 0.0:
            # Everything stamped "now" (first live sample): average over
            # the whole sweep instead of dividing by a degenerate span.
            return self.tasks_done / max(self.elapsed_s(), 1e-6)
        return len(recent) / span

    def eta_s(self) -> float | None:
        """Estimated seconds to completion, or ``None`` with no rate yet."""
        remaining = max(0, self.tasks_total - self.tasks_done)
        if remaining == 0:
            return 0.0
        rate = self.rate()
        if rate <= 0.0:
            return None
        return remaining / rate

    def elapsed_s(self) -> float:
        return time.monotonic() - self.started_mono

    def merged_metrics(self) -> MetricsSnapshot:
        """The per-task snapshots merged in submission (index) order —
        the exact sequence ``run_sweep`` merges, so the result is
        bit-identical to the final ``SweepTiming.metrics``."""
        return merge_snapshots(
            self._snapshots[i] for i in sorted(self._snapshots)
        )

    def as_row(self) -> dict:
        """A plain-dict view for renderers and the metrics endpoint."""
        eta = self.eta_s()
        return {
            "label": self.label,
            "run_id": self.run_id,
            "backend": self.backend,
            "jobs": self.jobs,
            "tasks_total": self.tasks_total,
            "tasks_done": self.tasks_done,
            "tasks_ok": self.tasks_ok,
            **{c.name: getattr(self, c.name) for c in SWEEP_COUNTERS},
            "elapsed_s": round(self.elapsed_s(), 3),
            "rate_per_s": round(self.rate(), 3),
            "eta_s": None if eta is None else round(eta, 1),
            "finished": self.finished,
            "workers": [
                self.workers[w].as_dict() for w in sorted(self.workers)
            ],
        }


# ---------------------------------------------------------------------
# Listener bus + publication.

_LISTENERS: list = []
_ACTIVE: LiveStats | None = None
# Process-lifetime monotone totals for the metrics endpoint.
_RUN_TOTALS = {"sweeps": 0, "tasks_done": 0, "failures": 0}


def add_listener(listener) -> None:
    """Register a ``listener(kind, stats)`` callback for live updates.

    ``kind`` is ``"begin"`` when a sweep is published, ``"tick"`` on the
    engine's poll ticks, and otherwise the kind of the event record just
    folded (``"task_done"``, ``"worker_lost"``, …; ``"sweep"`` ends the
    sweep).  Listener exceptions are swallowed — rendering must never
    disturb a sweep.
    """
    if listener not in _LISTENERS:
        _LISTENERS.append(listener)


def remove_listener(listener) -> None:
    """Unregister a previously added listener (missing is a no-op)."""
    try:
        _LISTENERS.remove(listener)
    except ValueError:
        pass


def _notify(kind: str, stats: "LiveStats") -> None:
    for listener in _LISTENERS:
        try:
            listener(kind, stats)
        except Exception:
            pass


def telemetry_active() -> bool:
    """Whether any live consumer wants per-sweep streaming aggregation."""
    return bool(_LISTENERS or _SERVER is not None)


def publish(stats: LiveStats) -> bool:
    """Expose one sweep's stats to listeners, :func:`current` and the
    metrics endpoint; returns whether it was published.

    Publication needs a consumer (a listener or the metrics server) and
    observability on (not ``REPRO_OBS=off``).  Unpublished stats still
    count — they are the sweep's accounting — but notify no one.
    """
    global _ACTIVE
    if not telemetry_active() or not metrics_mod.enabled():
        return False
    stats.published = True
    _ACTIVE = stats
    _RUN_TOTALS["sweeps"] += 1
    _notify("begin", stats)
    return True


def current() -> LiveStats | None:
    """The most recent published sweep's stats (kept after it finishes)."""
    return _ACTIVE


# ---------------------------------------------------------------------
class LiveRenderer:
    """Listener drawing the in-terminal dashboard (``--progress=live``).

    Renders through :func:`repro.viz.ascii.render_dashboard` at most
    every ``interval_s``; on a TTY the previous frame is overwritten
    with ANSI cursor movement, elsewhere (pipes, logs) a compact
    one-line summary is appended instead so output stays greppable.
    """

    def __init__(self, stream=None, interval_s: float = 0.2,
                 ansi: bool | None = None):
        import sys

        self._stream = stream if stream is not None else sys.stderr
        self._interval = interval_s
        self._last = 0.0
        self._frame_lines = 0
        if ansi is None:
            ansi = bool(getattr(self._stream, "isatty", lambda: False)())
        self._ansi = ansi

    def __call__(self, kind: str, stats: LiveStats) -> None:
        now = time.monotonic()
        if kind not in ("begin", "sweep") and \
                now - self._last < self._interval:
            return
        self._last = now
        from repro.viz.ascii import render_dashboard

        row = stats.as_row()
        if self._ansi:
            text = render_dashboard(row)
            lines = text.count("\n") + 1
            if self._frame_lines:
                self._stream.write(f"\x1b[{self._frame_lines}F\x1b[J")
            self._stream.write(text + "\n")
            self._frame_lines = 0 if kind == "sweep" else lines
        else:
            eta = row["eta_s"]
            self._stream.write(
                f"[{row['label']}] {row['tasks_done']}/{row['tasks_total']} "
                f"tasks, {row['rate_per_s']:.2f}/s, "
                f"eta {'—' if eta is None else f'{eta:.0f}s'}, "
                f"failures {row['failures']}, workers {len(row['workers'])}"
                + (" (done)" if row["finished"] else "") + "\n"
            )
        self._stream.flush()


# ---------------------------------------------------------------------
# Prometheus text-format exposition endpoint (stdlib http.server).

_SERVER: "MetricsServer | None" = None
_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _san(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _label_escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", " ")


def render_prometheus() -> str:
    """The current process's telemetry in Prometheus text exposition.

    Always includes the run-level monotone totals; while a sweep is (or
    just was) live, also its progress gauges, per-worker heartbeat ages,
    and the folded per-sweep counters and histograms.
    """
    lines = [
        "# HELP repro_up Whether the repro process is serving metrics.",
        "# TYPE repro_up gauge",
        "repro_up 1",
        "# TYPE repro_run_sweeps_total counter",
        f"repro_run_sweeps_total {_RUN_TOTALS['sweeps']}",
        "# TYPE repro_run_tasks_done_total counter",
        f"repro_run_tasks_done_total {_RUN_TOTALS['tasks_done']}",
        "# TYPE repro_run_failures_total counter",
        f"repro_run_failures_total {_RUN_TOTALS['failures']}",
    ]
    stats = _ACTIVE
    if stats is None:
        return "\n".join(lines) + "\n"
    sweep = (
        f'sweep="{_label_escape(stats.label)}",'
        f'run_id="{_label_escape(stats.run_id)}",'
        f'backend="{_label_escape(stats.backend)}"'
    )
    row = stats.as_row()
    gauge_fields = (
        ("tasks_total", "Tasks submitted to the sweep."),
        ("tasks_done", "Tasks with a committed outcome."),
        ("tasks_ok", "Tasks that committed successfully."),
        *((c.name, c.help) for c in SWEEP_COUNTERS),
        ("elapsed_s", "Seconds since the sweep began."),
        ("rate_per_s", "Moving-window completion rate."),
    )
    for name, help_text in gauge_fields:
        lines.append(f"# HELP repro_sweep_{name} {help_text}")
        lines.append(f"# TYPE repro_sweep_{name} gauge")
        lines.append(f"repro_sweep_{name}{{{sweep}}} {row[name]}")
    eta = row["eta_s"]
    lines.append("# TYPE repro_sweep_eta_seconds gauge")
    lines.append(
        f"repro_sweep_eta_seconds{{{sweep}}} "
        f"{'NaN' if eta is None else eta}"
    )
    lines.append("# TYPE repro_worker_heartbeat_age_seconds gauge")
    lines.append("# TYPE repro_worker_tasks_done gauge")
    for health in (stats.workers[w] for w in sorted(stats.workers)):
        worker = f'{sweep},worker="{_label_escape(health.worker)}"'
        lines.append(
            f"repro_worker_heartbeat_age_seconds{{{worker}}} "
            f"{health.age_s:.3f}"
        )
        lines.append(
            f"repro_worker_tasks_done{{{worker}}} {health.tasks_done}"
        )
    for name in sorted(stats.counters):
        metric = f"repro_metric_{_san(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{{{sweep}}} {stats.counters[name]}")
    for name in sorted(stats.gauges):
        metric = f"repro_metric_{_san(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{{{sweep}}} {stats.gauges[name]}")
    for name in sorted(stats.histograms):
        edges, counts = stats.histograms[name]
        metric = f"repro_metric_{_san(name)}"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for edge, count in zip(edges, counts):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{{sweep},le="{edge}"}} {cumulative}'
            )
        cumulative += counts[len(edges)]
        lines.append(f'{metric}_bucket{{{sweep},le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_count{{{sweep}}} {cumulative}")
    return "\n".join(lines) + "\n"


class _MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404)
            return
        body = render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # scrapes are not user-facing output
        pass


class MetricsServer:
    """Prometheus exposition endpoint on a daemon thread.

    ``port=0`` binds an ephemeral port; :attr:`port` reports the real
    one.  The handler reads module state under the GIL — the controller
    updates plain ints and dict entries, so a scrape mid-update sees a
    consistent-enough snapshot (Prometheus semantics tolerate this).
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1"):
        self._httpd = ThreadingHTTPServer((host, port), _MetricsHandler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True, name="repro-metrics",
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=2.0)


def start_metrics_server(port: int = 0) -> MetricsServer:
    """Start (or return the already-running) metrics endpoint."""
    global _SERVER
    if _SERVER is None:
        _SERVER = MetricsServer(port=port)
    return _SERVER


def stop_metrics_server() -> None:
    """Stop the metrics endpoint, if one is running."""
    global _SERVER
    if _SERVER is not None:
        _SERVER.close()
        _SERVER = None


def get_metrics_server() -> MetricsServer | None:
    """The running metrics endpoint, if any."""
    return _SERVER


def resolve_metrics_port(port: int | None = None) -> int | None:
    """The endpoint port: argument, then ``REPRO_METRICS_PORT``, else
    ``None`` (no endpoint).  ``0`` asks for an ephemeral port."""
    if port is not None:
        return port
    raw = os.environ.get(METRICS_PORT_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        from repro.common.errors import ConfigError

        raise ConfigError(
            f"{METRICS_PORT_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


# ---------------------------------------------------------------------
# Following another process's run: JSONL event stream -> LiveStats.


def resolve_events_path(path: str | Path) -> Path:
    """``path`` itself when it is a file; for a directory, the most
    recently modified ``*.jsonl`` inside it (a run/checkpoint dir)."""
    p = Path(path)
    if p.is_dir():
        candidates = sorted(
            p.glob("**/*.jsonl"),
            key=lambda f: f.stat().st_mtime,
            reverse=True,
        )
        if not candidates:
            from repro.common.errors import ConfigError

            raise ConfigError(f"no .jsonl event stream under {p}")
        return candidates[0]
    return p


class EventFollower:
    """Incremental reader of a JSONL event stream being appended to.

    Each :meth:`poll` returns the events whose lines are *complete* —
    a partially-written trailing line (no newline yet, the writer is
    mid-append or died mid-write) stays buffered and is retried on the
    next poll, so a follower never parses torn JSON.  Complete lines
    that still fail to parse (a hard kill mid-flush) are counted in
    :attr:`skipped` and dropped, mirroring checkpoint restore.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.skipped = 0
        self._offset = 0
        self._tail = b""

    def poll(self) -> list[dict]:
        """Newly completed events since the last poll (possibly [])."""
        try:
            with self.path.open("rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        self._offset += len(data)
        data = self._tail + data
        lines = data.split(b"\n")
        self._tail = lines.pop()  # b"" when data ended on a newline
        events = []
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self.skipped += 1
                continue
            if isinstance(record, dict):
                events.append(record)
            else:
                self.skipped += 1
        return events


def _window_stamp(stats: LiveStats, record: dict) -> None:
    """Add a completion to the rate window at the time it *happened*.

    A follower replaying a backlog (``repro top`` on a finished or
    far-ahead run) would otherwise stamp every historical completion
    "now" and report an absurd instantaneous rate; translating the
    event's wall-clock ``ts`` onto the local monotonic timeline keeps
    the window truthful both live (ts ≈ now) and on replay (old stamps
    age straight out of the rate horizon).
    """
    ts = record.get("ts")
    if ts is None:
        stats._window.append(time.monotonic())
    else:
        stats._window.append(time.monotonic() - (time.time() - float(ts)))


def fold_event(stats: LiveStats | None, record: dict,
               snapshots: dict[int, MetricsSnapshot] | None = None,
               ) -> LiveStats | None:
    """Fold one sweep event record into a :class:`LiveStats`.

    The only code that counts sweep facts: the engine folds every record
    it emits, and ``repro top`` folds the same records back from the
    sink.  Returns the (possibly new) stats object: a ``sweep_begin``
    record starts a fresh aggregate, everything else updates the current
    one; records that carry no sweep fact pass through unchanged.
    ``snapshots`` maps task index to the metric snapshot the record
    commits — in-process only, the sink never carries them.
    """
    kind = record.get("event")
    if kind == "sweep_begin":
        stats = LiveStats(
            record.get("label", "sweep"),
            int(record.get("tasks", 0)),
            run_id=record.get("run_id", ""),
            backend=record.get("executor", ""),
            jobs=int(record.get("jobs", 1)),
        )
        # Checkpoint-restored slots are committed before the sweep runs.
        stats.resumed = int(record.get("resumed_tasks", 0))
        stats.tasks_done = stats.tasks_ok = stats.resumed
    if stats is None:
        return None
    worker = str(record.get("worker", "") or "")
    if kind in ("task_done", "task_failed"):
        stats.tasks_done += 1
        stats.tasks_ok += kind == "task_done"
        stats.retries += int(record.get("retries", 0))
        stats.timeouts += int(record.get("timeouts", 0))
        _window_stamp(stats, record)
        if worker:
            stats._worker(worker).tasks_done += 1
    elif kind == "chunk_started":
        if worker:
            stats._worker(worker).inflight_chunk = record.get("chunk_id")
    elif kind == "chunk_done":
        health = stats.workers.get(worker)
        if health is not None \
                and health.inflight_chunk == record.get("chunk_id"):
            health.inflight_chunk = None
    elif kind == "worker_lost":
        if worker:
            health = stats._worker(worker)
            health.lost = record.get("reason", "crash")
            health.inflight_chunk = None
    elif kind == "worker_respawned":
        if worker:
            stats._worker(worker)  # the replacement shows up immediately
    elif kind == "sweep":
        stats.finished = True
    name = _COUNTED_BY.get(kind)
    if name is not None:
        setattr(stats, name, getattr(stats, name) + 1)
    for index, snap in (snapshots or {}).items():
        if snap is not None:
            stats._snapshots[index] = snap
            stats._fold_snapshot(snap)
    if stats.published:
        if kind == "sweep":
            _RUN_TOTALS["tasks_done"] += stats.tasks_done
            _RUN_TOTALS["failures"] += stats.failures
        _notify(kind, stats)
    return stats


_EVENT_SUMMARY_FIELDS = (
    "run_id", "label", "task_index", "worker", "replaced", "reason",
    "chunk_id", "tasks", "executor", "wall_s", "failures",
    "stranded_tasks", "error", "path",
)


def format_event(record: dict) -> str:
    """One sink event as a compact single line (``repro tail`` output)."""
    kind = record.get("event", "?")
    ts = record.get("ts")
    clock = time.strftime("%H:%M:%S", time.localtime(ts)) if ts else "--:--:--"
    parts = [
        f"{field}={record[field]}"
        for field in _EVENT_SUMMARY_FIELDS
        if record.get(field) not in (None, "")
    ]
    return f"{clock} {kind:<24s} {' '.join(parts)}".rstrip()
