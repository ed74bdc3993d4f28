"""The sweep scheduler: every scheduling decision as one pure step.

:func:`step` takes a :class:`Schedule`, one event and the time, updates
the schedule in place and returns the actions that follow.  It performs
no I/O, reads no clock and touches no process or pipe, so the whole
policy runs on a fake clock with simulated workers
(``tests/test_scheduler.py`` drives it under Hypothesis).  The engine's
runner feeds it the adapters' events and carries out its actions.

Events in: the adapters' ``ChunkStarted`` / ``TaskDone`` /
``ChunkDone`` / ``WorkerExited`` (:mod:`repro.experiments.executors`),
and :class:`SpawnResult`, :class:`Tick`, :class:`DrainRequested`.
Actions out: :class:`Send`, :class:`Kill`, :class:`Spawn`,
:class:`Commit`, :class:`Quarantine`, :class:`Note`, :class:`Degrade`,
:class:`Stop`.

The policy: pending chunks go FIFO onto the idle worker with the lowest
id.  With a per-task timeout every chunk holds a lease — its wave's
worst-case serial budget, re-armed to its own when a worker starts it
or it is requeued; an expired lease kills a pool worker (a ``lease``
loss) and fails the chunk in process.  A lost worker's chunk requeues
at most ``max_requeues`` times, chaos attributed so the rerun is clean;
a chunk that keeps killing workers with no chaos decision to blame is
bisected, and a lone task that does it :data:`_POISON_LOSS_LIMIT` times
is quarantined.  Every loss books a replacement within
``max_respawns``; with no worker, no spawn and no budget left the
remaining chunks degrade to the next backend (``local -> inline``).  A
drain withdraws the chunks not yet placed.  Outcomes commit at most
once per task key in the engine's ``_SweepState``; the schedule mirrors
which tasks have one so that it never fabricates a second.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.experiments.chaos import ChaosPolicy
from repro.experiments.executors import (
    DEGRADATION_CHAIN,
    ChunkDone,
    ChunkStarted,
    TaskDone,
    WorkerExited,
    _TaskOutcome,
)

# Controller-deadline slack over the serial worst case: covers dispatch,
# pickling, and scheduler noise without masking a genuinely stuck worker.
_DEADLINE_SLACK = 1.25
_DEADLINE_GRACE_S = 2.0

# Unattributed worker losses a chunk survives before the scheduler
# suspects a poison task and bisects (or, at single-task grain,
# quarantines).  Chaos-attributed losses never count — they are one-shot
# by construction and the rerun is clean.
_POISON_LOSS_LIMIT = 2

# Longest wait for adapter events between ticks, so a drain request is
# noticed and live consumers tick at least twice a second.
_MAX_WAIT_S = 0.5
_DRAIN_WAIT_S = 0.25


class SpawnResult(NamedTuple):  # the new worker's id; None if it failed
    replaced: object
    ordinal: int
    worker: object = None


class Tick(NamedTuple):         # time passed
    pass


class DrainRequested(NamedTuple):
    reason: str = ""


class Send(NamedTuple):         # hand a chunk to an idle worker
    worker: object
    chunk_id: int
    entries: list


class Kill(NamedTuple):         # pool: kill the process; inline: drop chunk
    worker: object


class Spawn(NamedTuple):        # start a worker, answer with a SpawnResult
    replaced: object
    ordinal: int


class Commit(NamedTuple):       # fold one task outcome into the sweep
    outcome: _TaskOutcome
    chunk_id: int | None = None
    worker: str = ""


class Quarantine(NamedTuple):   # declare a task poisonous
    index: int
    base: int
    reason: str


class Note(NamedTuple):         # record one sweep event
    kind: str
    fields: dict


class Degrade(NamedTuple):      # continue on the next backend
    backend: str


class Stop(NamedTuple):         # done | drained | broken (degrade_serial off)
    reason: str = "done"
    tasks: int = 0              # stranded or unfinished tasks


@dataclass
class _Chunk:
    """One chunk of ``(index, base_attempt, item)`` entries."""

    entries: list
    lease: float | None = None   # deadline; None without a task timeout
    worker: object = None        # placed on this worker; None while pending
    requeues: int = 0
    losses: int = 0              # unattributed crashes of its workers


def _wave_budget(chunks, policy) -> float:
    """Worst-case wall budget for one submission wave.

    Every attempt of every entry at the per-attempt timeout plus maximal
    backoffs, run *serially* — a pessimistic bound that stays valid
    however the pool distributes chunks over workers (a queued chunk's
    wait time is someone else's run time, already counted).  Only
    meaningful when ``policy.timeout_s`` is set.
    """
    budget = 0.0
    for chunk in chunks:
        for _index, base, _item in chunk:
            attempts = max(1, policy.max_retries + 1 - base)
            budget += attempts * policy.timeout_s
            budget += (attempts - 1) * policy.max_backoff_s * 1.5
    return budget * _DEADLINE_SLACK + _DEADLINE_GRACE_S


def _bump_lost_entries(chunk, chaos: ChaosPolicy | None, reason: str):
    """Attribute a lost worker to the chaos decisions that caused it,
    consuming the disturbed first attempts so the requeued rerun is
    injection-free.  Both sides of the pipe compute the same pure
    decisions, which is what lets the controller attribute a death it
    only observed as a fired process sentinel.  ``crash`` losses
    attribute kills; a chaos ``worker-hang`` (decided from the first
    entry) is consumed for *any* reason — including lease-driven
    requeues, which are exactly how a hang surfaces — while a real
    crash or hang (no chaos decision) resubmits unchanged.
    """
    if chaos is None:
        return list(chunk)
    bumped = []
    for pos, (index, base, item) in enumerate(chunk):
        bump = pos == 0 and chaos.hangs(index, base)
        if reason == "crash":
            bump = bump or chaos.kills(index, base)
        bumped.append((index, base + 1, item) if bump else (index, base, item))
    return bumped


def step(schedule: Schedule, event, now: float) -> list:
    """Apply one event to ``schedule`` and return the resulting actions."""
    schedule.now = now
    schedule.out = []
    getattr(schedule, _HANDLERS[type(event)])(event)
    return schedule.out


def wait_s(schedule: Schedule, now: float) -> float:
    """How long the runner may wait for events before the next tick."""
    deadlines = [due for due, _replaced, _ordinal in schedule.spawns]
    if schedule.policy.timeout_s is not None:
        deadlines += [c.lease for c in schedule.chunks.values()]
    cap = _DRAIN_WAIT_S if schedule.draining else _MAX_WAIT_S
    return min([cap] + [max(0.0, d - now) for d in deadlines])


class Schedule:
    """The scheduler's whole state for one sweep of ``chunks``, starting
    on ``backend`` with its initial ``workers``."""

    def __init__(self, chunks, backend: str, workers, policy,
                 chaos: ChaosPolicy | None, now: float):
        self.policy = policy
        self.chaos = chaos
        self.backend = backend
        self.workers = {w: None for w in workers}  # id -> placed chunk id
        self.chunks: dict[int, _Chunk] = {}
        self.pending: deque = deque()   # chunk ids awaiting a worker
        self.next_id = 0
        self.committed: set = set()     # task indices with an outcome
        self.respawns_used = 0
        self.spawns: list = []          # booked (due, replaced, ordinal)
        self.spawning = 0               # Spawn actions awaiting a result
        self.last_lost = None
        self.draining = False
        self.drain_deadline = 0.0
        self.stranded = 0
        self.now = now
        self.out: list = []
        self._submit(chunks)

    def _note(self, kind: str, **fields) -> None:
        self.out.append(Note(kind, fields))

    def _lease(self, chunks) -> float | None:
        if self.policy.timeout_s is None:
            return None
        return self.now + _wave_budget(chunks, self.policy)

    def _submit(self, chunks) -> list[int]:
        """Queue a wave of chunks under fresh ids and one shared lease."""
        lease = self._lease(chunks)
        ids = []
        for entries in chunks:
            ids.append(self.next_id)
            self.chunks[self.next_id] = _Chunk(list(entries), lease=lease)
            self.pending.append(self.next_id)
            self.next_id += 1
        return ids

    def _fail(self, entries, error_kind: str, error: str, attempts) -> None:
        """Commit a failure for every entry that has no outcome yet."""
        for index, base, _item in entries:
            if index not in self.committed:
                self.committed.add(index)
                self.out.append(Commit(_TaskOutcome(
                    index=index, attempts=attempts(base),
                    timeouts=int(error_kind == "timeout"),
                    error_kind=error_kind, error=error,
                )))

    def _expire(self, entries) -> None:
        # The controller backstop fired.
        retries = self.policy.max_retries
        self._fail(entries, "timeout", (
            "controller deadline expired: task still unfinished after "
            "the wave's worst-case budget (per-attempt timeout "
            f"{self.policy.timeout_s}s)"
        ), lambda base: max(1, retries + 1 - base))

    # -- events ----------------------------------------------------------
    def _on_task_done(self, event: TaskDone) -> None:
        self.committed.add(event.outcome.index)
        self.out.append(Commit(event.outcome, event.chunk_id,
                               str(event.worker)))

    def _on_chunk_started(self, event: ChunkStarted) -> None:
        chunk = self.chunks.get(event.chunk_id)
        if chunk is not None:
            # Re-arm to the chunk's own budget (tighter than its wave's).
            chunk.lease = self._lease([chunk.entries])
        self._note("chunk_started", chunk_id=event.chunk_id,
                   worker=str(event.worker))

    def _on_chunk_done(self, event: ChunkDone) -> None:
        self.chunks.pop(event.chunk_id, None)
        if self.workers.get(event.worker) == event.chunk_id:
            self.workers[event.worker] = None
        self._note("chunk_done", chunk_id=event.chunk_id,
                   worker=str(event.worker))

    def _on_worker_exited(self, event: WorkerExited) -> None:
        self._lose(event.worker, "crash")

    def _on_spawn_result(self, event: SpawnResult) -> None:
        self.spawning -= 1
        if event.worker is None:
            self._note("worker_respawn_failed", backend=self.backend,
                       replaced=str(event.replaced), ordinal=event.ordinal)
            return
        self.workers[event.worker] = None
        self._note("worker_respawned", backend=self.backend,
                   worker=str(event.worker), replaced=str(event.replaced))
        self._dispatch()

    def _on_drain(self, event: DrainRequested) -> None:
        if self.draining:
            return
        self.draining = True
        self.drain_deadline = self.now + self.policy.drain_timeout_s
        # Withdraw everything not yet placed; what a worker already
        # holds finishes and commits normally.
        while self.pending:
            self._strand(self.pending.popleft())
        self._note("sweep_draining", reason=event.reason,
                   inflight_chunks=len(self.chunks),
                   stranded_tasks=self.stranded)

    def _on_tick(self, _event: Tick) -> None:
        if self.draining and self.now >= self.drain_deadline:
            # Placed chunks outlived the drain timeout: give up on them
            # and let shutdown kill their workers.
            for chunk_id in list(self.chunks):
                self._strand(chunk_id)
        if self.policy.timeout_s is not None:
            for chunk_id in sorted(self.chunks):
                chunk = self.chunks.get(chunk_id)
                if chunk is not None and chunk.lease <= self.now:
                    self._expire_lease(chunk_id, chunk)
        if not self.chunks:
            self.out.append(Stop("drained", self.stranded)
                            if self.draining else Stop())
            return
        for booked in [s for s in self.spawns if s[0] <= self.now]:
            self.spawns.remove(booked)
            self.spawning += 1
            self.out.append(Spawn(booked[1], booked[2]))
        self._dispatch()
        if self.pending and not self.workers and not self.spawning:
            # No worker left: spend what respawn budget remains before
            # giving up on the backend.
            while not self.spawns \
                    and self.respawns_used < self.policy.max_respawns:
                self._book_respawn(self.last_lost)
            if not self.spawns:
                self._degrade()

    # -- decisions -------------------------------------------------------
    def _dispatch(self) -> None:
        """FIFO onto the idle worker with the lowest id."""
        for worker in sorted(w for w, c in self.workers.items() if c is None):
            if not self.pending:
                return
            chunk_id = self.pending.popleft()
            chunk = self.chunks[chunk_id]
            chunk.worker = worker
            self.workers[worker] = chunk_id
            self.out.append(Send(worker, chunk_id, chunk.entries))

    def _expire_lease(self, chunk_id: int, chunk: _Chunk) -> None:
        self._note("lease_expired", backend=self.backend, chunk_id=chunk_id,
                   timeout_s=self.policy.timeout_s)
        if self.backend == DEGRADATION_CHAIN[-1]:
            # The chain's last link runs in this process: its worker
            # cannot be replaced, so drop the chunk and fail its
            # unfinished tasks as timed out.
            del self.chunks[chunk_id]
            if chunk.worker is None:
                self.pending.remove(chunk_id)
            else:
                self.workers[chunk.worker] = None
                self.out.append(Kill(chunk.worker))
            self._expire(chunk.entries)
        elif chunk.worker is not None:
            # Alive but stuck: kill it; the loss requeues the chunk.
            self.out.append(Kill(chunk.worker))
            self._lose(chunk.worker, "lease")
        else:
            self.pending.remove(chunk_id)
            self._requeue(chunk_id, "lease")

    def _lose(self, worker, reason: str) -> None:
        """A worker is gone (``crash``, or killed on an expired
        ``lease``): requeue its chunk and book its replacement."""
        if worker not in self.workers:
            return
        chunk_id = self.workers.pop(worker)
        self.last_lost = worker
        self._note("worker_lost", backend=self.backend, worker=str(worker),
                   reason=reason, chunks=int(chunk_id is not None))
        if chunk_id in self.chunks:
            self._requeue(chunk_id, reason)
        self._book_respawn(worker)

    def _requeue(self, chunk_id: int, reason: str) -> None:
        """Resubmit a chunk that lost its worker (neither placed nor
        pending on entry)."""
        chunk = self.chunks[chunk_id]
        chunk.worker = None
        original = chunk.entries
        chunk.entries = _bump_lost_entries(original, self.chaos, reason)
        attributed = any(
            new[1] != old[1] for old, new in zip(original, chunk.entries)
        )
        if reason == "crash" and not attributed:
            chunk.losses += 1
            if chunk.losses >= _POISON_LOSS_LIMIT:
                del self.chunks[chunk_id]
                if len(chunk.entries) > 1:
                    self._bisect(chunk_id, chunk, reason)
                    return
                index, base, _item = chunk.entries[0]
                if index not in self.committed:
                    self.committed.add(index)
                    self.out.append(Quarantine(index, base, reason))
                return
        chunk.requeues += 1
        if chunk.requeues <= self.policy.max_requeues:
            self._note("chunk_requeued", chunk_id=chunk_id, reason=reason,
                       requeues=chunk.requeues)
            chunk.lease = self._lease([chunk.entries])
            self.pending.append(chunk_id)
            return
        del self.chunks[chunk_id]
        if reason == "lease":
            self._expire(chunk.entries)
        else:
            self._fail(chunk.entries, "error", (
                f"chunk abandoned after {chunk.requeues - 1} requeues "
                f"(last worker loss: {reason})"
            ), lambda base: base + 1)

    def _bisect(self, chunk_id: int, chunk: _Chunk, reason: str) -> None:
        # A chunk that keeps killing workers without a chaos decision to
        # blame hides a poison task: split it so the halves isolate the
        # culprit (fresh chunk ids, fresh requeue and loss budgets) —
        # one bad task no longer costs every retry of its chunk-mates.
        mid = len(chunk.entries) // 2
        halves = self._submit([chunk.entries[:mid], chunk.entries[mid:]])
        self._note("chunk_bisected", chunk_id=chunk_id, reason=reason,
                   halves=halves, tasks=len(chunk.entries))

    def _book_respawn(self, replaced) -> None:
        """Book a replacement for a lost worker, if budget remains.

        The budget is consumed at booking time, so a chaos-vetoed
        respawn (``respawn-fail``) costs an attempt exactly like a real
        spawn failure would.
        """
        if self.respawns_used >= self.policy.max_respawns:
            return
        ordinal = self.respawns_used
        self.respawns_used += 1
        if self.chaos is not None and self.chaos.fails_respawn(ordinal):
            self._note("worker_respawn_failed", backend=self.backend,
                       replaced=str(replaced), ordinal=ordinal)
            return
        self.spawns.append(
            (self.now + self.policy.respawn_backoff_s, replaced, ordinal))

    def _degrade(self) -> None:
        """Hand the unfinished chunks to the next link of the chain."""
        remaining = [self.chunks[c].entries for c in sorted(self.chunks)]
        tasks = sum(len(entries) for entries in remaining)
        if not self.policy.degrade_serial:
            self.out.append(Stop("broken", tasks))
            return
        fallback = DEGRADATION_CHAIN[DEGRADATION_CHAIN.index(self.backend) + 1]
        self._note("sweep_degraded", backend=self.backend, fallback=fallback,
                   remaining_tasks=tasks)
        self.out.append(Degrade(fallback))
        # A fresh wave on the fallback, whose one worker is named after
        # it: new chunk ids, requeue counts and budgets.
        self.backend = fallback
        self.workers = {fallback: None}
        self.chunks.clear()
        self.pending.clear()
        self.next_id = 0
        self._submit(remaining)

    def _strand(self, chunk_id: int) -> None:
        """Give up on a chunk: its uncommitted tasks are left to a resume."""
        chunk = self.chunks.pop(chunk_id)
        self.stranded += sum(1 for index, _base, _item in chunk.entries
                             if index not in self.committed)


_HANDLERS = {
    Tick: "_on_tick",
    TaskDone: "_on_task_done",
    ChunkStarted: "_on_chunk_started",
    ChunkDone: "_on_chunk_done",
    WorkerExited: "_on_worker_exited",
    SpawnResult: "_on_spawn_result",
    DrainRequested: "_on_drain",
}
