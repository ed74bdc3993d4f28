"""Fault-tolerant parallel experiment execution engine.

Every figure/table driver is a sweep over independent ``(benchmark x chip
model x policy)`` simulations, so the drivers submit their task lists here
instead of running nested loops inline.  The engine provides:

* :func:`parallel_map` / :func:`run_sweep` — order-preserving map over a
  pluggable executor backend (:mod:`repro.experiments.executors`) with
  chunked submission (chunks keep a worker on one benchmark's tasks so
  its per-process artifact cache gets hits; see :mod:`repro.common.memo`);
* a worker-count policy: an explicit ``jobs`` argument wins, then the
  ``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.
  Backend selection mirrors it: ``executor=`` argument, then the CLI's
  ``--executor``, then ``REPRO_EXECUTOR``, then ``inline`` for one
  worker (a pure in-process loop — no executor processes, no pickling —
  so ``pdb``, profilers, and coverage keep working) and the ``local``
  supervised worker pool otherwise;
* a short runner loop around the pure scheduler core
  (:mod:`repro.experiments.scheduler`): it feeds the core's
  ``step(schedule, event, now) -> actions`` the adapter's events and a
  tick per turn, and carries out the actions — send, kill, spawn,
  commit, note, degrade, stop.  The core owns every decision: per-chunk
  **leases**, requeue of a lost or lease-killed worker's chunk onto a
  surviving (or respawned) worker, bisection down to quarantine of a
  poison task, the respawn budget, the drain, and degradation down the
  chain ``local -> inline``; results commit **at most once** per task
  key here (a slow original completing after its requeued twin cannot
  double-count);
* a resilience policy (:class:`TaskPolicy`): per-task retries with
  exponential backoff and deterministic jitter, a per-task timeout that
  kills hung attempts from inside the worker, fail-fast vs.
  collect-errors modes, a worker respawn budget, and graceful
  degradation after repeated worker deaths;
* sweep checkpointing (:mod:`repro.experiments.checkpoint`): completed
  task results append to a JSONL file keyed by run id and task key, so an
  interrupted sweep resumes via ``--resume <run_id>`` and re-executes
  only the tasks that never finished;
* a chaos hook (:mod:`repro.experiments.chaos`, ``REPRO_CHAOS``) that
  injects worker-side failures, delays, and process kills so the recovery
  machinery is itself testable — mirroring how :mod:`repro.core.faults`
  injects faults into the simulated cores;
* per-task wall-clock, metric-delta, and failure accounting recorded as a
  :class:`SweepTiming` per sweep (stamped with the active run id) that
  ``experiments/report.py`` and the benchmark harness render.

Determinism: results are returned in task-submission order regardless of
completion, retry, or resume history.  Tasks are pure — a retried attempt
is bit-identical to a clean first run — and the metric deltas of failed
attempts are discarded, so merged sweep metrics are equal across any
worker count, retry history, or resume boundary.  Chaos injections fire
*before* a task's body and only on first attempts, which keeps even a
chaos-disturbed sweep bit-identical to an undisturbed serial one.

Failure accounting (failures/retries/timeouts/lost workers) deliberately
stays **out** of the merged metric snapshots and in dedicated
:class:`SweepTiming` fields: the ``metrics`` section of a run manifest
must stay bit-identical between a faulted-and-recovered run and a clean
one, which it could not if recovery events were counted there.  Those
fields are counted in one place: every fact the scheduler learns is an
event record that :meth:`_SweepState.note` writes to the event sink and
folds with :func:`repro.obs.live.fold_event` — the same fold ``repro
top`` runs over the sink — and the counters are read off that fold.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence, TypeVar

from repro.common.errors import (
    ConfigError,
    SweepAbortedError,
    SweepDrainedError,
    TaskError,
    TaskQuarantinedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.experiments import chaos as chaos_mod
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import executors as executors_mod
from repro.experiments import scheduler
from repro.experiments.chaos import ChaosPolicy, hash01
from repro.experiments.executors import (
    EXECUTOR_ENV_VAR,
    _TaskOutcome,
    resolve_executor,
    set_default_executor,
)
from repro.obs import events
from repro.obs import export as export_mod
from repro.obs import live as live_mod
from repro.obs import profile as profile_mod
from repro.obs.metrics import MetricsSnapshot, merge_snapshots

__all__ = [
    "JOBS_ENV_VAR",
    "RETRIES_ENV_VAR",
    "TASK_TIMEOUT_ENV_VAR",
    "EXECUTOR_ENV_VAR",
    "TaskPolicy",
    "SweepTiming",
    "resolve_jobs",
    "set_default_jobs",
    "set_default_policy",
    "policy_from_env",
    "resolve_policy",
    "resolve_executor",
    "set_default_executor",
    "parallel_map",
    "run_sweep",
    "run_metrics",
    "request_drain",
    "drain_requested",
    "clear_drain",
    "timings",
    "clear_timings",
    "timing_summary",
    "format_timing_summary",
]

T = TypeVar("T")
R = TypeVar("R")

JOBS_ENV_VAR = "REPRO_JOBS"

# Upper bound on auto-detected workers: sweeps are memory-hungry (each
# worker holds its own artifact cache), so "as many as the machine has"
# is capped unless the user asks explicitly.
_MAX_AUTO_JOBS = 16

# Guard against division by a degenerate (sub-resolution) wall clock.
_EPS_WALL_S = 1e-9


# ---------------------------------------------------------------------
@dataclass(frozen=True)
class TaskPolicy:
    """How a sweep treats task failures, hangs, and worker deaths.

    ``max_retries`` counts *re*-executions per task beyond the first
    attempt.  ``timeout_s`` kills an attempt from inside the worker (a
    ``SIGALRM`` timer around the task body; enforcement needs a Unix
    main thread and otherwise degrades to no limit).  Backoff between a
    task's attempts grows exponentially from ``backoff_s`` and carries
    deterministic jitter derived from the task index, so retry storms
    from chunk-mates never synchronise yet stay reproducible.  With
    ``fail_fast`` (the default) the first exhausted task aborts the
    sweep with :class:`SweepAbortedError`; otherwise failures are
    collected, failed slots return ``None``, and the sweep completes.
    On the ``local`` worker pool, a chunk stranded by a lost worker or
    an expired lease is resubmitted to a surviving worker at most
    ``max_requeues`` times before its unfinished tasks are declared
    failed.  A lost (or lease-killed) worker is replaced by a freshly
    forked one after ``respawn_backoff_s``, at most ``max_respawns``
    times per sweep (``0`` shrinks onto the survivors instead).  Once
    the pool has no worker left and its respawn budget is spent, the
    remaining tasks run serially in-process (``degrade_serial``) or
    :class:`WorkerCrashError` is raised.  ``drain_timeout_s`` bounds
    how long a drain (SIGTERM) waits for in-flight chunks to finish
    before giving up on them.
    """

    max_retries: int = 0
    timeout_s: float | None = None
    backoff_s: float = 0.0
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 2.0
    fail_fast: bool = True
    degrade_serial: bool = True
    max_requeues: int = 3
    max_respawns: int = 8
    respawn_backoff_s: float = 0.1
    drain_timeout_s: float = 30.0

    def __post_init__(self):
        for name in ("max_retries", "max_requeues", "max_respawns",
                     "respawn_backoff_s"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        for name in ("timeout_s", "drain_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigError("backoff times must be >= 0")

    def backoff(self, task_index: int, attempt: int) -> float:
        """Seconds to wait before ``attempt`` (>= 1) of ``task_index``.

        Exponential in the attempt number, capped at ``max_backoff_s``,
        with up to +50% jitter hashed from the task index — deterministic
        for a given sweep, decorrelated across tasks.
        """
        if self.backoff_s <= 0:
            return 0.0
        base = min(
            self.backoff_s * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        return base * (1.0 + 0.5 * hash01(f"backoff:{task_index}:{attempt}"))


_BASE_POLICY = TaskPolicy()
_DEFAULT_POLICY: TaskPolicy | None = None

RETRIES_ENV_VAR = "REPRO_RETRIES"
TASK_TIMEOUT_ENV_VAR = "REPRO_TASK_TIMEOUT"


def set_default_policy(policy: TaskPolicy | None) -> None:
    """Set the process-wide resilience policy (the CLI's retry flags).

    Applies to every sweep that does not pass ``policy`` explicitly;
    ``None`` restores the environment-derived (or base) default.
    """
    global _DEFAULT_POLICY
    _DEFAULT_POLICY = policy


def policy_from_env() -> TaskPolicy | None:
    """The resilience policy implied by ``REPRO_RETRIES`` /
    ``REPRO_TASK_TIMEOUT``, or None when neither is set.

    Mirrors ``REPRO_JOBS``: environment knobs sit below explicit
    arguments and :func:`set_default_policy` (the CLI flags), above the
    built-in default.  Re-read on every resolution so tests and long
    processes see environment changes.
    """
    overrides: dict[str, object] = {}
    raw = os.environ.get(RETRIES_ENV_VAR, "").strip()
    if raw:
        try:
            overrides["max_retries"] = int(raw)
        except ValueError:
            raise ConfigError(
                f"{RETRIES_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    raw = os.environ.get(TASK_TIMEOUT_ENV_VAR, "").strip()
    if raw:
        try:
            overrides["timeout_s"] = float(raw)
        except ValueError:
            raise ConfigError(
                f"{TASK_TIMEOUT_ENV_VAR} must be a number, got {raw!r}"
            ) from None
    if not overrides:
        return None
    return replace(_BASE_POLICY, **overrides)


def resolve_policy(policy: TaskPolicy | None = None) -> TaskPolicy:
    """The effective policy: argument, then :func:`set_default_policy`,
    then the environment knobs, then the built-in default."""
    return policy or _DEFAULT_POLICY or policy_from_env() or _BASE_POLICY


# ---------------------------------------------------------------------
@dataclass
class SweepTiming:
    """Wall-clock and failure accounting of one sweep through the engine.

    The counter fields (one per :data:`repro.obs.live.SWEEP_COUNTERS`
    row) are read off the sweep's event fold, never bumped directly;
    ``quarantined`` holds the verdicts themselves.
    """

    label: str
    jobs: int
    task_wall_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    run_id: str = ""
    metrics: MetricsSnapshot | None = None
    failures: int = 0        # tasks that exhausted every attempt
    retries: int = 0         # failed attempts that were retried
    timeouts: int = 0        # attempts killed by the per-task timeout
    resumed_tasks: int = 0   # tasks restored from a checkpoint
    degraded: bool = False   # fell down the backend chain mid-sweep
    empty: bool = False      # sweep had no tasks (not recorded)
    executor: str = ""       # backend the sweep started on
    backends: list[str] = field(default_factory=list)  # backends used, in order
    requeues: int = 0        # chunks resubmitted after worker loss/lease expiry
    lost_workers: int = 0    # worker processes that died mid-sweep
    lease_expiries: int = 0  # chunk leases that expired at the controller
    duplicate_results: int = 0  # late/duplicate commits dropped per task key
    respawns: int = 0        # replacement workers spawned after a loss
    respawn_failures: int = 0  # respawn attempts that failed to come up
    bisections: int = 0      # chunks split while isolating a poison task
    quarantined: list = field(default_factory=list)  # poison tasks, as dicts

    @property
    def tasks(self) -> int:
        """Number of tasks the sweep ran."""
        return len(self.task_wall_s)

    @property
    def cpu_s(self) -> float:
        """Summed per-task wall time — the serial-equivalent cost."""
        return sum(self.task_wall_s)

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over actual wall time.

        Division is epsilon-guarded, so a degenerate (sub-resolution)
        wall clock yields a huge-but-finite ratio instead of a bogus
        ``1.0``; :func:`format_timing_summary` renders such sweeps as
        ``—``.  An empty sweep reports ``0.0``.
        """
        return self.cpu_s / max(self.wall_s, _EPS_WALL_S)


_TIMINGS: list[SweepTiming] = []


def timings(run_id: str | None = None) -> list[SweepTiming]:
    """Sweep timings recorded in this process, oldest first.

    With ``run_id``, only that run's sweeps — the registry is never
    cleared between runs, so long-lived processes (test sessions,
    notebooks) filter instead of racing over a global reset.
    """
    if run_id is None:
        return list(_TIMINGS)
    return [t for t in _TIMINGS if t.run_id == run_id]


def clear_timings() -> None:
    """Forget all recorded sweep timings (prefer run-id filtering)."""
    _TIMINGS.clear()


def timing_summary(
    run_id: str | None = None, include_metrics: bool = False
) -> list[dict]:
    """The recorded timings as plain dicts (JSON-serialisable).

    ``include_metrics`` adds each sweep's merged metric snapshot (for
    run manifests); the default stays compact for the results report.
    """
    rows = []
    for t in timings(run_id):
        row = {
            "label": t.label,
            "run_id": t.run_id,
            "tasks": t.tasks,
            "jobs": t.jobs,
            "cpu_s": round(t.cpu_s, 3),
            "wall_s": round(t.wall_s, 3),
            "speedup": round(t.speedup, 2),
            "degraded": t.degraded,
            "executor": t.executor,
            "backends": list(t.backends),
            **{c.field: getattr(t, c.field) for c in live_mod.SWEEP_COUNTERS},
            "quarantined": list(t.quarantined),
        }
        if include_metrics:
            row["metrics"] = (t.metrics or MetricsSnapshot()).as_dict()
        rows.append(row)
    return rows


def run_metrics(run_id: str | None = None) -> MetricsSnapshot:
    """All of one run's sweep metrics merged into a single snapshot.

    Built purely from the per-task deltas the sweeps collected, so the
    result is identical whatever worker count produced them.
    """
    return merge_snapshots(t.metrics for t in timings(run_id))


def format_timing_summary(run_id: str | None = None) -> str:
    """Human-readable table of every sweep recorded so far."""
    rows = timing_summary(run_id)
    if not rows:
        return "no sweeps recorded"
    header = ["sweep", "tasks", "jobs", "cpu (s)", "wall (s)", "speedup"]
    table = [
        [r["label"], str(r["tasks"]), str(r["jobs"]), f"{r['cpu_s']:.2f}",
         f"{r['wall_s']:.2f}",
         "—" if r["wall_s"] <= 0 or r["tasks"] == 0
         else f"{r['speedup']:.2f}x"]
        for r in rows
    ]
    widths = [
        max(len(header[i]), max(len(row[i]) for row in table))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in table]
    return "\n".join(lines)


# ---------------------------------------------------------------------
_DEFAULT_JOBS: int | None = None


def set_default_jobs(jobs: int | None) -> None:
    """Set the process-wide default worker count (the CLI's ``--jobs``).

    Applies to every sweep that does not pass ``jobs`` explicitly; it
    outranks ``REPRO_JOBS``.  ``None`` restores environment/auto policy.
    """
    global _DEFAULT_JOBS
    if jobs is not None and jobs < 1:
        raise ConfigError(f"worker count must be >= 1, got {jobs}")
    _DEFAULT_JOBS = jobs


def resolve_jobs(jobs: int | None = None) -> int:
    """The worker count: argument, then :func:`set_default_jobs`, then
    ``REPRO_JOBS``, then ``os.cpu_count()`` (capped)."""
    if jobs is None:
        jobs = _DEFAULT_JOBS
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ConfigError(
                    f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = min(os.cpu_count() or 1, _MAX_AUTO_JOBS)
    if jobs < 1:
        raise ConfigError(f"worker count must be >= 1, got {jobs}")
    return jobs


# ---------------------------------------------------------------------
# Controller side: the sweep's results, checkpoint and event records,
# and the runner that carries out the scheduler core's actions.
# (Scheduling decisions live in repro.experiments.scheduler; worker-side
# execution — the attempt loop and SIGALRM deadline — in
# repro.experiments.executors.)


class _SweepState:
    """Per-sweep bookkeeping shared by the serial and pool paths."""

    def __init__(self, tasks: Sequence, label: str, policy: TaskPolicy,
                 timing: SweepTiming,
                 ckpt: checkpoint_mod.SweepCheckpoint | None):
        self.tasks = tasks
        self.label = label
        self.policy = policy
        self.timing = timing
        self.ckpt = ckpt
        n = len(tasks)
        self.results: list = [None] * n
        self.walls: list[float] = [0.0] * n
        self.snapshots: list[MetricsSnapshot | None] = [None] * n
        self.failures: list[TaskError] = []
        # The sweep's accounting: every note() folds into it.  run_sweep's
        # sweep_begin note replaces it with one that knows the backend.
        self.live = live_mod.LiveStats(label, n, run_id=timing.run_id)
        # At-most-once commit: task keys whose slot is already decided.
        # A requeued chunk can race its slow original (or a chaos-
        # duplicated result frame can arrive twice) — the first commit
        # wins, every later arrival for the key is dropped.
        self.committed: set[str] = set()

    def note(self, kind: str,
             snapshots: dict[int, MetricsSnapshot] | None = None,
             **fields) -> None:
        """Record one sweep fact — the single accounting path.

        Builds the event record once, writes it to the event sink, folds
        it into the sweep's :class:`~repro.obs.live.LiveStats`, and reads
        the counters off onto :class:`SweepTiming`.  ``snapshots`` (task
        index -> metric snapshot) reach the fold only, never the sink.
        """
        record = events.event_record(
            kind, run_id=self.timing.run_id, label=self.label, **fields
        )
        events.write(record)
        self.live = live_mod.fold_event(self.live, record, snapshots)
        for counter in live_mod.SWEEP_COUNTERS:
            if counter.field != "quarantined":  # the timing keeps verdicts
                setattr(self.timing, counter.field,
                        getattr(self.live, counter.name))

    def restore(self, chunk: list) -> bool:
        """Commit a whole chunk from the checkpoint, or none of it.

        A chunk re-runs whole unless every one of its tasks is
        checkpointed, so a partly checkpointed chunk must leave no slot
        committed — its re-run would otherwise commit as duplicates.
        """
        if self.ckpt is None:
            return False
        stored = []
        for index, _base, item in chunk:
            key = checkpoint_mod.task_key(item, index)
            entry = self.ckpt.restore(key)
            if entry is None:
                return False
            stored.append((index, key, entry))
        for index, key, entry in stored:
            self.results[index], self.walls[index], self.snapshots[index] = entry
            self.committed.add(key)
        return True

    def absorb(self, outcome: _TaskOutcome, chunk_id: int | None = None,
               worker: str = "") -> None:
        """Fold one final task outcome into the sweep (and checkpoint).

        Commits at most once per task key: a duplicate arrival (late
        original after a requeue, or a chaos-duplicated result frame)
        is counted and dropped, keeping results, metrics, and the
        checkpoint identical to a single clean delivery.

        ``chunk_id`` and ``worker`` are trace context for the live /
        export consumers only — scheduling never reads them, and every
        telemetry fold below is observation-only.
        """
        i = outcome.index
        key = checkpoint_mod.task_key(self.tasks[i], i)
        if key in self.committed:
            self.note("duplicate_result_dropped", task_index=i, task_key=key)
            return
        self.committed.add(key)
        if outcome.ok:
            self.results[i] = outcome.result
            self.walls[i] = outcome.wall_s
            self.snapshots[i] = outcome.metrics
            if self.ckpt is not None:
                self.ckpt.append(key, i, repr(self.tasks[i])[:160],
                                 outcome.wall_s, outcome.result,
                                 outcome.metrics)
            self._observe_commit(outcome, key, chunk_id, worker)
            return
        message = (
            f"sweep {self.label!r} task {i} failed after "
            f"{outcome.attempts} attempt(s): {outcome.error}"
        )
        cls = {"timeout": TaskTimeoutError,
               "quarantine": TaskQuarantinedError}.get(outcome.error_kind,
                                                       TaskError)
        kwargs = dict(task_key=key, task_index=i, attempts=outcome.attempts,
                      worker_traceback=outcome.traceback)
        if cls is TaskTimeoutError:
            kwargs["timeout_s"] = self.policy.timeout_s or 0.0
        error = cls(message, **kwargs)
        self.failures.append(error)
        self.note("task_failed", task_index=i, task_key=key,
                  attempts=outcome.attempts, error_kind=outcome.error_kind,
                  error=outcome.error, worker=worker,
                  retries=outcome.retries, timeouts=outcome.timeouts)
        if self.policy.fail_fast:
            raise SweepAbortedError(
                f"sweep {self.label!r} aborted: {message}",
                label=self.label,
                failures=self.failures,
            ) from error

    def _observe_commit(self, outcome: _TaskOutcome, key: str,
                        chunk_id: int | None, worker: str) -> None:
        """Feed one committed success to the telemetry consumers.

        Observation-only by construction: reads the outcome, writes only
        to the trace collector, the profile accumulator, and the sweep's
        event fold — never to sweep state.
        """
        i = outcome.index
        telemetry = outcome.telemetry or {}
        collector = export_mod.get_collector()
        if collector is not None and telemetry:
            collector.record(export_mod.TaskTrace(
                label=self.label,
                index=i,
                task_key=key,
                chunk_id=-1 if chunk_id is None else chunk_id,
                worker=worker,
                pid=telemetry.get("pid", 0),
                start_unix=telemetry.get("start_unix", 0.0),
                wall_s=outcome.wall_s,
                spans=getattr(outcome.metrics, "spans", None),
                run_id=self.timing.run_id,
            ))
        accumulator = profile_mod.get_accumulator()
        if accumulator is not None and telemetry.get("profile"):
            accumulator.fold(telemetry["profile"])
        self.note("task_done", snapshots={i: outcome.metrics}, task_index=i,
                  wall_s=round(outcome.wall_s, 6), worker=worker,
                  retries=outcome.retries, timeouts=outcome.timeouts)

    def quarantine(self, index: int, base: int, reason: str) -> None:
        """Declare one task poisonous and commit a failure for it.

        Records the verdict in the sweep timing, the checkpoint (as a
        payload-free quarantine record — a later resume re-runs the task
        once more), and the event stream, then folds a failed outcome
        through the normal at-most-once commit so fail-fast and failure
        accounting behave exactly like any exhausted task.
        """
        item = self.tasks[index]
        key = checkpoint_mod.task_key(item, index)
        if key in self.committed:
            return
        error = (
            f"task quarantined after repeatedly killing its worker "
            f"(last loss: {reason})"
        )
        self.timing.quarantined.append({"task_key": key, "index": index,
                                        "task": repr(item)[:160],
                                        "error": error})
        if self.ckpt is not None:
            self.ckpt.append_quarantine(key, index, repr(item)[:160], error)
        self.note("task_quarantined", task_index=index, task_key=key,
                  reason=reason)
        self.absorb(_TaskOutcome(index=index, attempts=base + 1,
                                 error_kind="quarantine", error=error))


# ---------------------------------------------------------------------
# Drain requests (SIGTERM): a process-wide flag the runner checks every
# turn and hands to the scheduler core.  On a drain, in-flight chunks
# finish and commit, pending chunks are withdrawn, and the sweep raises
# :class:`SweepDrainedError` so the caller can exit with a resume hint.

_DRAIN = {"requested": False, "reason": ""}


def request_drain(reason: str = "signal") -> None:
    """Ask running (and subsequent) sweeps to drain and stop.

    Safe to call from a signal handler: sets a flag the runner checks
    every turn — no locks, no I/O.  Stays set until :func:`clear_drain`, so
    a multi-sweep command stops after the sweep that noticed it.
    """
    _DRAIN["requested"] = True
    _DRAIN["reason"] = reason


def drain_requested() -> bool:
    """Whether a drain has been requested and not yet cleared."""
    return _DRAIN["requested"]


def clear_drain() -> None:
    """Reset the drain flag (the CLI does this between invocations)."""
    _DRAIN["requested"] = False
    _DRAIN["reason"] = ""


def _run_scheduled(fn, chunks, jobs, policy, chaos, state: _SweepState,
                   backend: str) -> None:
    """Run ``chunks`` to the end: feed the scheduler core a pending
    drain request, a tick and every adapter event, and carry out the
    actions it returns.  Every decision is the core's."""
    def open_backend(name: str):
        state.timing.backends.append(name)
        return executors_mod.make_executor(
            name, fn=fn, policy=policy, chaos=chaos,
            jobs=max(1, min(jobs, len(chunks))),
        )

    adapter = open_backend(backend)
    schedule = scheduler.Schedule(chunks, backend, adapter.workers(),
                                  policy, chaos, time.monotonic())

    def feed(event) -> scheduler.Stop | None:
        nonlocal adapter
        todo = deque(scheduler.step(schedule, event, time.monotonic()))
        while todo:
            action = todo.popleft()
            if isinstance(action, scheduler.Note):
                state.note(action.kind, **action.fields)
            elif isinstance(action, scheduler.Commit):
                state.absorb(action.outcome, chunk_id=action.chunk_id,
                             worker=action.worker)
            elif isinstance(action, scheduler.Send):
                adapter.send(action.worker, action.chunk_id, action.entries)
            elif isinstance(action, scheduler.Kill):
                adapter.kill(action.worker)
            elif isinstance(action, scheduler.Spawn):
                try:
                    worker = adapter.spawn()
                except OSError:
                    worker = None
                todo.extend(scheduler.step(schedule, scheduler.SpawnResult(
                    action.replaced, action.ordinal, worker),
                    time.monotonic()))
            elif isinstance(action, scheduler.Quarantine):
                state.quarantine(action.index, action.base, action.reason)
            elif isinstance(action, scheduler.Degrade):
                adapter.shutdown(kill=True)
                state.timing.degraded = True
                adapter = open_backend(action.backend)
            elif isinstance(action, scheduler.Stop):
                return action
        return None

    try:
        while True:
            if _DRAIN["requested"]:
                feed(scheduler.DrainRequested(_DRAIN["reason"]))
            stop = feed(scheduler.Tick())
            if stop is not None:
                break
            for event in adapter.poll(
                    scheduler.wait_s(schedule, time.monotonic())):
                feed(event)
            state.live.tick(adapter)
        if stop.reason == "drained":
            raise SweepDrainedError(
                f"sweep {state.label!r} drained after "
                f"{_DRAIN['reason'] or 'drain request'}: "
                f"{len(state.committed)}/{len(state.tasks)} task(s) "
                f"committed, {stop.tasks} stranded",
                label=state.label,
                run_id=state.timing.run_id,
                completed=len(state.committed),
                total=len(state.tasks),
                stranded=stop.tasks,
            )
        if stop.reason == "broken":
            raise WorkerCrashError(
                f"sweep {state.label!r}: executor backend "
                f"{schedule.backend!r} failed with {stop.tasks} task(s) "
                "unfinished and degradation disabled",
            )
    except BaseException:
        adapter.shutdown(kill=True)
        raise
    adapter.shutdown()


# ---------------------------------------------------------------------
def run_sweep(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    chunksize: int | None = None,
    label: str = "sweep",
    record: bool = True,
    policy: TaskPolicy | None = None,
    chaos: ChaosPolicy | None = None,
    executor: str | None = None,
) -> tuple[list[R], SweepTiming]:
    """Map ``fn`` over ``items``, preserving order, with fault tolerance.

    ``fn`` must be a module-level callable and every item picklable when
    the work leaves the process (the ``local`` worker pool).  With
    ``jobs=1`` (the ``inline`` backend) nothing is pickled and
    everything runs in-process.  ``executor`` picks the backend by name
    (``inline``/``local``; default per
    :func:`~repro.experiments.executors.resolve_executor`).
    ``chunksize`` controls how many consecutive tasks form one unit of
    worker placement; drivers pass the inner-loop length so one worker
    runs all of a benchmark's chip models and reuses its memoized trace.

    ``policy`` (default: :func:`set_default_policy`, else no retries,
    fail fast) governs retries, timeouts, error collection, and worker
    recovery; ``chaos`` (default: :func:`chaos.set_chaos`, else the
    ``REPRO_CHAOS`` environment variable) injects faults for testing.
    In collect-errors mode the returned list holds ``None`` for tasks
    that exhausted their attempts.

    An empty task list returns immediately with ``timing.empty`` set and
    records nothing, so reports never show zero-task sweeps.
    """
    tasks: Sequence[T] = list(items)
    policy = resolve_policy(policy)
    chaos = chaos if chaos is not None else chaos_mod.current_chaos()
    run_id = events.current_run_id()
    timing = SweepTiming(label=label, jobs=1, run_id=run_id)
    if not tasks:
        timing.empty = True
        timing.metrics = MetricsSnapshot()
        return [], timing
    jobs = min(resolve_jobs(jobs), max(1, len(tasks)))
    if chunksize is None:
        chunksize = max(1, -(-len(tasks) // (jobs * 4)))
    entries = [(i, 0, item) for i, item in enumerate(tasks)]
    chunks = [entries[i:i + chunksize]
              for i in range(0, len(entries), chunksize)]
    ckpt = checkpoint_mod.open_sweep(label, run_id, chaos=chaos)
    state = _SweepState(tasks, label, policy, timing, ckpt)
    # Chunk-granular restore (see repro.experiments.checkpoint).
    pending_chunks = [chunk for chunk in chunks if not state.restore(chunk)]
    jobs = min(jobs, max(1, len(pending_chunks)))
    timing.jobs = jobs
    backend = resolve_executor(executor, jobs)
    timing.executor = backend
    state.note(
        "sweep_begin",
        # Only restored slots hold a snapshot yet.
        snapshots=dict(enumerate(state.snapshots)),
        tasks=len(tasks),
        jobs=jobs,
        executor=backend,
        resumed_tasks=len(state.committed),
    )
    live_mod.publish(state.live)
    start = time.perf_counter()
    try:
        if pending_chunks:
            _run_scheduled(fn, pending_chunks, jobs, policy, chaos,
                           state, backend)
        if ckpt is not None:
            # The sweep ran to completion: publish the crash-consistent
            # "this checkpoint is the full record" marker.
            ckpt.finalize(len(tasks), failures=timing.failures)
    except KeyboardInterrupt:
        state.note(
            "sweep_interrupted",
            completed_tasks=sum(s is not None for s in state.snapshots),
            checkpointed=ckpt is not None,
        )
        raise
    except SweepDrainedError as exc:
        state.note(
            "sweep_drained",
            reason=_DRAIN["reason"],
            completed_tasks=exc.completed,
            stranded_tasks=exc.stranded,
            checkpointed=ckpt is not None,
        )
        raise
    finally:
        if ckpt is not None:
            ckpt.close()
    timing.wall_s = time.perf_counter() - start
    timing.task_wall_s = list(state.walls)
    # Merge in submission order: the operation is order-independent, but
    # a fixed order keeps even float-valued span times reproducible for
    # a given worker count.
    timing.metrics = merge_snapshots(state.snapshots)
    state.note(
        "sweep",
        tasks=timing.tasks,
        jobs=jobs,
        wall_s=round(timing.wall_s, 3),
        executor=backend,
        **{c.field: getattr(state.live, c.name)
           for c in live_mod.SWEEP_COUNTERS},
    )
    if record:
        _TIMINGS.append(timing)
    return state.results, timing


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    chunksize: int | None = None,
    label: str = "sweep",
    policy: TaskPolicy | None = None,
    chaos: ChaosPolicy | None = None,
    executor: str | None = None,
) -> list[R]:
    """:func:`run_sweep` without the timing handle (it is still recorded)."""
    results, _ = run_sweep(
        fn, items, jobs=jobs, chunksize=chunksize, label=label,
        policy=policy, chaos=chaos, executor=executor,
    )
    return results
