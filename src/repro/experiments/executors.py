"""Executor adapters for the sweep engine.

The scheduler core (:mod:`repro.experiments.scheduler`) decides which
chunk of sweep tasks runs where and what happens when something goes
wrong; *running* a chunk is this module's concern.  An
:class:`Executor` adapter carries out the core's ``Send`` / ``Kill`` /
``Spawn`` actions and reports what its workers did as
:class:`ChunkStarted` / :class:`TaskDone` / :class:`ChunkDone` /
:class:`WorkerExited` events.  Adapters hold no chunk queue, placement
rule, lease or respawn budget.  Two ship:

* :class:`InlineExecutor` (``inline``) — serial, in-process, one task
  per ``poll`` call so the engine can checkpoint and fail-fast
  *between* tasks.  Nothing is pickled; ``pdb``, profilers, and
  coverage keep working.
* :class:`PoolExecutor` (``local``) — forked worker processes, each
  connected to the controller by its own ``multiprocessing`` pipe.  It
  keeps only fork, pipe send/receive, sentinel wait and kill: workers
  stream per-task results, and a dead worker is seen at once through
  its process sentinel.

This module also owns the *worker-side* execution layer — the
per-attempt retry loop (:func:`_attempt_task`), the ``SIGALRM``
interval-timer deadline (:func:`_deadline`), and the picklable
:class:`_TaskOutcome` record.

On platforms without ``signal.SIGALRM`` / ``setitimer`` the in-worker
deadline cannot be armed; :func:`_attempt_task` then falls back to a
post-hoc wall-clock check (an overlong attempt that *finishes* is still
converted to a timeout and retried) and true hangs are left to the
scheduler's chunk lease, which fabricates the timeout when the chunk
outlives its worst-case budget.

Selection: :func:`resolve_executor` picks the backend — explicit
argument, then :func:`set_default_executor` (the CLI's ``--executor``),
then the ``REPRO_EXECUTOR`` environment variable, then ``inline`` for
``jobs=1`` and ``local`` otherwise.  When the pool has no worker left
and no respawn budget, the scheduler degrades down
:data:`DEGRADATION_CHAIN` (``local -> inline``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback as traceback_mod
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, NamedTuple, Sequence

from repro.common.errors import ChaosError, ConfigError
from repro.experiments.chaos import ChaosPolicy
from repro.obs import profile as profile_mod
from repro.obs.metrics import MetricsSnapshot, get_registry

__all__ = [
    "EXECUTOR_ENV_VAR",
    "DEGRADATION_CHAIN",
    "ChunkStarted",
    "TaskDone",
    "ChunkDone",
    "WorkerExited",
    "Executor",
    "InlineExecutor",
    "PoolExecutor",
    "make_executor",
    "resolve_executor",
    "set_default_executor",
]

EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Fallback order when a backend fails for good: each link degrades to
#: the next.  ``inline`` cannot fail (it is the in-process loop), so the
#: chain always terminates.
DEGRADATION_CHAIN = ("local", "inline")

#: Whether this platform can arm the in-worker interval-timer deadline.
#: Module-level so tests can monkeypatch the no-SIGALRM fallback.
_HAS_ALARM = hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")


# ---------------------------------------------------------------------
# Worker-side task execution: attempts, timeouts, chaos.
#
# A sweep entry is the tuple ``(index, base_attempt, item)``.
# ``base_attempt`` is nonzero only after a chaos kill (or hang) was
# attributed to the task, so its rerun counts the consumed attempt and
# skips further first-attempt injections.


class _TaskTimeout(BaseException):
    """Raised by the SIGALRM handler; BaseException so the task body
    cannot swallow it with a broad ``except Exception``."""


def _alarm_usable() -> bool:
    """Whether the in-process deadline can be enforced right here."""
    return _HAS_ALARM and threading.current_thread() is threading.main_thread()


@contextmanager
def _deadline(timeout_s: float | None):
    """Kill the enclosed block after ``timeout_s`` via an interval timer.

    Enforcement requires ``SIGALRM`` (Unix) and the main thread — both
    true for pool workers and for the inline in-process path.
    Anywhere else the block runs unlimited rather than failing; the
    caller's post-hoc wall check and the controller-side lease take
    over (see the module docstring).

    The timer is armed with a repeating interval equal to the timeout:
    if a task body swallows the first :class:`_TaskTimeout` (a broad
    ``except BaseException`` handler) the alarm re-fires one period
    later, so an in-process (jobs=1) task cannot convert one caught
    alarm into an unlimited run.  The ``finally`` disarm clears both the
    pending expiry and the repeat interval.
    """
    if timeout_s is None or not _alarm_usable():
        yield
        return

    def _on_alarm(signum, frame):
        raise _TaskTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class _TaskOutcome:
    """What one task's attempt loop produced (picklable)."""

    index: int
    ok: bool = False
    result: object = None
    wall_s: float = 0.0
    metrics: MetricsSnapshot | None = None
    attempts: int = 0        # attempts executed here (excludes base)
    retries: int = 0         # failed attempts that were retried in place
    timeouts: int = 0        # attempts killed by the per-task timeout
    error_kind: str = ""     # "error" | "timeout" | "chaos"
    error: str = ""
    traceback: str = ""
    #: Optional trace context piggybacked for the live/export consumers:
    #: ``pid``, ``start_unix``/``end_unix`` wall-clock stamps, and (with
    #: ``--profile``) the attempt's collapsed-stack ``profile`` dict.
    #: ``None`` whenever observability is off (``REPRO_OBS=off``).
    telemetry: dict | None = None


def _attempt_task(
    fn: Callable,
    item,
    index: int,
    base_attempt: int,
    policy,
    chaos: ChaosPolicy | None,
    in_worker: bool,
) -> _TaskOutcome:
    """Run one task with in-place retries; never raises task errors.

    Retries stay on the executing process on purpose: the retry then
    sees exactly the memo-cache state a clean run would have, which is
    part of the merged-metric determinism contract.  Failed attempts
    call ``end_task`` purely to unwind the span stack — their metric
    deltas are discarded.

    Without a usable ``SIGALRM`` the deadline degrades to a post-hoc
    check: an attempt that returns after more than ``timeout_s`` of
    wall clock is discarded and counted as a timeout, exactly as if the
    alarm had fired.  Attempts that never return are the controller
    lease's problem.
    """
    outcome = _TaskOutcome(index=index)
    attempts_allowed = max(1, policy.max_retries + 1 - base_attempt)
    registry = get_registry()
    for n in range(attempts_allowed):
        attempt = base_attempt + n
        outcome.attempts = n + 1
        if n:
            delay = policy.backoff(index, attempt)
            if delay:
                time.sleep(delay)
        try:
            if chaos is not None:
                chaos.inject(index, attempt, in_worker=in_worker)
            mark = registry.begin_task()
            prof = profile_mod.start_profile() if profile_mod.enabled() \
                else None
            start_unix = time.time()
            try:
                start = time.perf_counter()
                with _deadline(policy.timeout_s):
                    result = fn(item)
                wall = time.perf_counter() - start
                if (
                    policy.timeout_s is not None
                    and wall > policy.timeout_s
                    and not _alarm_usable()
                ):
                    raise _TaskTimeout()
                snapshot = registry.end_task(mark)
            except BaseException:
                if prof is not None:
                    prof.disable()
                registry.end_task(mark)
                raise
        except _TaskTimeout:
            outcome.timeouts += 1
            outcome.error_kind = "timeout"
            outcome.error = f"task exceeded its {policy.timeout_s}s timeout"
            outcome.traceback = traceback_mod.format_exc()
        except ChaosError as exc:
            outcome.error_kind = "chaos"
            outcome.error = str(exc)
            outcome.traceback = traceback_mod.format_exc()
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            outcome.error_kind = "error"
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.traceback = traceback_mod.format_exc()
        else:
            outcome.ok = True
            outcome.result = result
            outcome.wall_s = wall
            outcome.metrics = snapshot
            if registry.enabled:
                telemetry = {
                    "pid": os.getpid(),
                    "start_unix": start_unix,
                    "end_unix": start_unix + wall,
                }
                if prof is not None:
                    telemetry["profile"] = profile_mod.collapse(prof)
                outcome.telemetry = telemetry
            return outcome
        if n + 1 < attempts_allowed:
            outcome.retries += 1
    return outcome


# ---------------------------------------------------------------------
# Adapter events: what the scheduler core (repro.experiments.scheduler)
# learns from a backend.  Worker ids are the adapter's own (pool: ints
# in spawn order; inline: the string "inline").


class ChunkStarted(NamedTuple):  # a worker began a chunk
    chunk_id: int
    worker: object = ""


class TaskDone(NamedTuple):      # one task finished, ok or exhausted
    chunk_id: int
    outcome: _TaskOutcome = None
    worker: object = ""


class ChunkDone(NamedTuple):     # every task reported; the worker is idle
    chunk_id: int
    worker: object = ""


class WorkerExited(NamedTuple):  # after every message the worker sent
    worker: object


class Executor:
    """Protocol all adapters implement; see the module docstring.

    Constructed with the sweep-constant context (``fn``, ``policy``,
    ``chaos``, ``jobs``).  ``workers()`` lists the live worker ids in
    spawn order; ``send(worker, chunk_id, entries)`` hands one chunk of
    ``(index, base_attempt, item)`` entries to an idle worker;
    ``poll(timeout_s)`` waits up to ``timeout_s`` and returns the new
    events; ``kill(worker)`` stops a worker at once (no event follows);
    the pool's ``spawn()`` starts one more worker and returns its id,
    raising ``OSError`` when it cannot; ``shutdown(kill=False)``
    releases every worker (``kill`` without waiting).  Adapters make no
    scheduling decision — which chunk goes where, leases, requeues and
    respawns are the scheduler core's.
    """

    name = "base"

    def __init__(self, *, fn, policy, chaos, jobs=1):
        self._fn = fn
        self._policy = policy
        self._chaos = chaos
        self._jobs = max(1, jobs)

    def heartbeat(self) -> dict:
        """Live-worker health, keyed by worker id (a string).

        Every backend reports the same schema — each value is a dict
        with ``worker`` (the same id), ``age_s`` (seconds since the
        worker's last message, monotonic clock; ``0.0`` for the
        in-process worker), and ``inflight_chunk`` (the chunk id
        currently sent to the worker, or ``None`` when idle).
        Backends may add keys — the pool adds ``tasks_done``, the task
        results received for the current chunk.  Observation-only: the
        scheduler never reads this; it feeds ``LiveStats`` and the
        metrics endpoint.
        """
        return {}


# ---------------------------------------------------------------------
class InlineExecutor(Executor):
    """Serial in-process execution, one task per :meth:`poll`.

    Advancing a single task per poll is what preserves the serial
    path's semantics: the scheduler absorbs (checkpoints, fail-fasts)
    between tasks, so an abort stops mid-chunk.  Its one worker is
    named ``inline``.  Chaos worker-kills are skipped
    (``in_worker=False``) — killing the controller process is never
    useful — which is exactly what lets a degraded run complete under
    any chaos policy.
    """

    name = "inline"

    def __init__(self, **context):
        super().__init__(**context)
        self._current = None  # [chunk_id, entries, next_pos]

    def workers(self) -> list:
        return [self.name]

    def send(self, worker, chunk_id: int, entries: Sequence) -> None:
        self._current = [chunk_id, list(entries), 0]

    def poll(self, timeout_s: float | None = None) -> list:
        if self._current is None:
            return []
        chunk_id, entries, pos = self._current
        events: list = []
        if pos == 0:
            events.append(ChunkStarted(chunk_id, worker=self.name))
        index, base, item = entries[pos]
        outcome = _attempt_task(
            self._fn, item, index, base, self._policy, self._chaos,
            in_worker=False,
        )
        events.append(TaskDone(chunk_id, outcome, worker=self.name))
        if pos + 1 >= len(entries):
            events.append(ChunkDone(chunk_id, worker=self.name))
            self._current = None
        else:
            self._current[2] = pos + 1
        return events

    def kill(self, worker) -> None:
        self._current = None

    def heartbeat(self) -> dict:
        inflight = self._current[0] if self._current is not None else None
        return {self.name: {"worker": self.name, "age_s": 0.0,
                            "inflight_chunk": inflight}}

    def shutdown(self, kill: bool = False) -> None:
        self._current = None


# ---------------------------------------------------------------------
# The supervised worker pool: forked processes, one pipe each.


def _pool_worker_main(conn, inherited, fn, policy, chaos):
    """Entry point of one pool worker process.

    Receives ``(chunk_id, entries)`` requests (``None`` means exit),
    runs each chunk through :func:`_attempt_task`, and streams one
    message per step back over its pipe: ``("started", chunk_id)``,
    ``("task", chunk_id, outcome)`` per task, ``("done", chunk_id)`` —
    with chaos-injected duplicate, delayed and hung messages when asked,
    so the controller's at-most-once commit and lease are exercised for
    real.

    ``inherited`` are the controller-side pipe ends this fork copied
    (its own and its live siblings').  Closing them here leaves the
    controller as the only holder, so the controller's death reaches
    every idle worker as EOF and the worker exits instead of lingering.
    SIGTERM is restored to its default and SIGINT ignored: the
    controller owns interruption and kills its workers itself.
    """
    for other in inherited:
        other.close()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            request = conn.recv()
            if request is None:
                return
            chunk_id, entries = request
            conn.send(("started", chunk_id))
            first_index, first_base, _item = entries[0]
            if chaos is not None and chaos.hangs(first_index, first_base):
                # Stall *after* accepting the chunk: only the chunk lease
                # can notice; the controller kills us and the chunk's
                # rerun is clean (the attempt bump consumes the decision).
                time.sleep(chaos.hang_s)
            for index, base, item in entries:
                outcome = _attempt_task(
                    fn, item, index, base, policy, chaos, in_worker=True,
                )
                if chaos is not None and chaos.delays_result(index, base):
                    time.sleep(chaos.frame_delay_s)
                conn.send(("task", chunk_id, outcome))
                if chaos is not None and chaos.duplicates_result(index, base):
                    conn.send(("task", chunk_id, outcome))
            conn.send(("done", chunk_id))
    except (EOFError, OSError):
        pass  # the controller is gone
    finally:
        conn.close()


@dataclass
class _Worker:
    """The controller's record of one pool worker."""

    id: int
    proc: multiprocessing.process.BaseProcess
    conn: object                 # controller end of the worker's pipe
    last_seen: float             # monotonic time of its last message
    chunk: int | None = None     # chunk sent to it, None when idle
    tasks_done: int = 0          # task messages for that chunk


class PoolExecutor(Executor):
    """``jobs`` forked worker processes, each on its own pipe.

    The controller is single-threaded: :meth:`poll` waits on every
    worker's pipe and process sentinel at once
    (:func:`multiprocessing.connection.wait`) and turns messages into
    events.  A worker that dies (sentinel, or EOF on its pipe) is
    reported as a :class:`WorkerExited` after every message it sent
    before dying, so its committed tasks stay committed.  A worker that
    is alive but stuck sends nothing; the scheduler's lease catches it
    and :meth:`kill` ends it.
    """

    name = "local"

    def __init__(self, **context):
        super().__init__(**context)
        # Fork, not spawn: workers start from the controller's warm
        # artifact cache, so they neither re-import the package nor
        # re-factorize thermal models the controller already built.
        self._ctx = multiprocessing.get_context("fork")
        self._workers: dict[int, _Worker] = {}
        self._next_worker_id = 0
        for _ in range(self._jobs):
            self.spawn()

    def workers(self) -> list:
        return sorted(self._workers)

    def spawn(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        conn, child_conn = self._ctx.Pipe()
        inherited = [w.conn for w in self._workers.values()] + [conn]
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, inherited, self._fn, self._policy,
                  self._chaos),
            daemon=True,
        )
        try:
            proc.start()
        finally:
            child_conn.close()
        self._workers[worker_id] = _Worker(
            worker_id, proc, conn, last_seen=time.monotonic()
        )
        return worker_id

    def kill(self, worker) -> None:
        """Forget one worker and make sure its process is gone."""
        record = self._workers.pop(worker, None)
        if record is None:
            return
        record.conn.close()
        record.proc.kill()
        record.proc.join(timeout=1.0)

    def send(self, worker, chunk_id: int, entries: Sequence) -> None:
        record = self._workers[worker]
        try:
            record.conn.send((chunk_id, list(entries)))
        except OSError:
            # The worker is dead; its sentinel reports the loss on the
            # next poll, with this chunk placed on it.
            pass
        record.chunk = chunk_id
        record.tasks_done = 0

    def poll(self, timeout_s: float | None = None) -> list:
        handles = {}
        for worker in self._workers.values():
            handles[worker.conn] = worker
            handles[worker.proc.sentinel] = worker
        ready = {handles[h].id: handles[h]
                 for h in mp_connection.wait(list(handles), timeout_s)}
        events: list = []
        for worker_id in sorted(ready):
            self._read(ready[worker_id], events)
        return events

    def _read(self, worker: _Worker, events: list) -> None:
        """Turn every message waiting on ``worker``'s pipe into events.

        Liveness is sampled *before* draining: a worker found dead has
        already written everything it ever will, so the drain delivers
        all of it before the loss is reported.
        """
        alive = worker.proc.is_alive()
        try:
            while worker.conn.poll():
                self._handle(worker, worker.conn.recv(), events)
        except (EOFError, OSError):
            alive = False
        if not alive:
            self.kill(worker.id)
            events.append(WorkerExited(worker.id))

    def _handle(self, worker: _Worker, message: tuple, events: list) -> None:
        worker.last_seen = time.monotonic()
        kind, chunk_id = message[0], message[1]
        if kind == "started":
            events.append(ChunkStarted(chunk_id, worker=worker.id))
        elif kind == "task":
            worker.tasks_done += 1
            events.append(TaskDone(chunk_id, message[2], worker=worker.id))
        elif kind == "done":
            worker.chunk = None
            worker.tasks_done = 0
            events.append(ChunkDone(chunk_id, worker=worker.id))

    def heartbeat(self) -> dict:
        now = time.monotonic()
        return {
            str(w.id): {"worker": str(w.id), "age_s": now - w.last_seen,
                        "inflight_chunk": w.chunk,
                        "tasks_done": w.tasks_done}
            for w in self._workers.values()
        }

    def shutdown(self, kill: bool = False) -> None:
        workers = list(self._workers.values())
        if not kill:
            for worker in workers:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
            for worker in workers:
                worker.proc.join(timeout=1.0)
        for worker in workers:
            self.kill(worker.id)


# ---------------------------------------------------------------------
# Backend selection.

_EXECUTORS = {
    "inline": InlineExecutor,
    "local": PoolExecutor,
}

_DEFAULT_EXECUTOR: str | None = None


def _known(name: str) -> str:
    if name not in _EXECUTORS:
        raise ConfigError(
            f"unknown executor {name!r} (expected one of "
            f"{sorted(_EXECUTORS)})"
        )
    return name


def set_default_executor(name: str | None) -> None:
    """Set the process-wide backend (the CLI's ``--executor``).

    Outranks ``REPRO_EXECUTOR``; ``None`` restores environment/auto
    selection.
    """
    global _DEFAULT_EXECUTOR
    _DEFAULT_EXECUTOR = None if name is None else _known(name)


def resolve_executor(executor: str | None = None,
                     jobs: int | None = None) -> str:
    """The backend name: argument, then :func:`set_default_executor`,
    then ``REPRO_EXECUTOR``, then ``inline`` for one worker and
    ``local`` otherwise."""
    name = executor or _DEFAULT_EXECUTOR
    if name is None:
        name = os.environ.get(EXECUTOR_ENV_VAR, "").strip().lower() or None
    if name is None:
        return "inline" if (jobs or 1) <= 1 else "local"
    return _known(name)


def make_executor(name: str, *, fn, policy, chaos, jobs=1) -> Executor:
    """Instantiate the named backend with the sweep-constant context."""
    return _EXECUTORS[_known(name)](fn=fn, policy=policy, chaos=chaos,
                                    jobs=jobs)
