"""The sweep scheduler core, driven on a fake clock.

``scheduler.step`` is pure, so Hypothesis can drive it through generated
interleavings of simulated workers — task outcomes (some duplicated or
delivered late), worker exits with and without a chaos cause, failing
spawns, ticks past lease deadlines and a drain request — with no
subprocess, pipe or sleep.  Every action is carried out the way the
engine's runner does it, against a real ``_SweepState``, and the
scheduling invariants are checked along the way and at the end.
"""

from collections import Counter, deque

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import engine, scheduler
from repro.experiments.chaos import ChaosPolicy
from repro.experiments.engine import SweepTiming, TaskPolicy
from repro.experiments.executors import (
    ChunkDone,
    ChunkStarted,
    TaskDone,
    WorkerExited,
    _TaskOutcome,
)
from repro.experiments.scheduler import _POISON_LOSS_LIMIT, _bump_lost_entries
from repro.obs.metrics import MetricsSnapshot

_LONG_S = 60.0       # a tick past every lease, booked spawn and drain


class _World:
    """Simulated workers around one schedule, plus invariant checks."""

    def __init__(self, data, n, chunksize, jobs, policy, chaos, poison):
        self.data = data
        self.policy = policy
        self.chaos = chaos
        self.poison = poison
        self.now = 0.0
        tasks = list(range(n))
        self.timing = SweepTiming(label="sim", jobs=jobs, run_id="sim")
        self.state = engine._SweepState(tasks, "sim", policy, self.timing,
                                        None)
        entries = [(i, 0, i) for i in tasks]
        chunks = [entries[i:i + chunksize]
                  for i in range(0, n, chunksize)]
        self.in_process = False
        # worker id -> [chunk_id, entries, next_pos, started, hung]
        self.workers = {w: None for w in range(jobs)}
        self.next_worker = jobs
        self.schedule = scheduler.Schedule(chunks, "local",
                                           list(self.workers), policy,
                                           chaos, self.now)
        self.stop = None
        self.sent: dict = {}          # chunk id -> entries last sent
        self.unexplained: Counter = Counter()   # chunk id -> crashes
        self.crashing = None          # chunk id of the crash being stepped
        self.delivered: list = []     # every TaskDone fed, for late replays
        self.first: dict = {}         # index -> first committed result
        self.notes: Counter = Counter()
        self.commits = 0
        self.failed = 0
        self.quarantines = 0
        self.lost = 0
        self.spawned = 0
        self.spawn_failures = 0
        self.spawn_actions = 0

    # -- the runner's half: feed an event, carry out its actions -------
    def feed(self, event) -> None:
        assert self.stop is None
        todo = deque(scheduler.step(self.schedule, event, self.now))
        while todo and self.stop is None:
            self.carry_out(todo.popleft(), todo)

    def carry_out(self, action, todo) -> None:
        if isinstance(action, scheduler.Note):
            self.notes[action.kind] += 1
            self.check_note(action)
            self.state.note(action.kind, **action.fields)
        elif isinstance(action, scheduler.Commit):
            self.commit(action.outcome.index, action.outcome,
                        fabricated=action.chunk_id is None)
            self.state.absorb(action.outcome, chunk_id=action.chunk_id,
                              worker=action.worker)
        elif isinstance(action, scheduler.Quarantine):
            chunk_id = self.crashing
            assert chunk_id is not None
            assert len(self.sent[chunk_id]) == 1
            assert self.unexplained[chunk_id] >= _POISON_LOSS_LIMIT
            self.quarantines += 1
            self.commit(action.index, None, fabricated=True)
            self.state.quarantine(action.index, action.base, action.reason)
        elif isinstance(action, scheduler.Send):
            assert self.workers.get(action.worker, "gone") is None
            self.workers[action.worker] = [action.chunk_id,
                                           list(action.entries), 0,
                                           False, False]
            self.sent[action.chunk_id] = list(action.entries)
        elif isinstance(action, scheduler.Kill):
            assert action.worker in self.workers
            if self.in_process:
                self.workers[action.worker] = None
            else:
                del self.workers[action.worker]
                self.lost += 1
        elif isinstance(action, scheduler.Spawn):
            self.spawn_actions += 1
            worker = None
            if self.data.draw(st.booleans(), label="spawn ok"):
                worker = self.next_worker
                self.next_worker += 1
                self.workers[worker] = None
                self.spawned += 1
            else:
                self.spawn_failures += 1
            todo.extend(scheduler.step(self.schedule, scheduler.SpawnResult(
                action.replaced, action.ordinal, worker), self.now))
        elif isinstance(action, scheduler.Degrade):
            # Degrade only with no worker, no spawn and no budget left.
            assert not self.workers
            assert self.schedule.respawns_used == self.policy.max_respawns
            assert self.spawn_actions == self.spawned + self.spawn_failures
            self.in_process = True
            self.workers = {action.backend: None}
            self.sent.clear()
        elif isinstance(action, scheduler.Stop):
            self.stop = action
        else:
            raise AssertionError(f"unknown action {action!r}")

    def commit(self, index, outcome, fabricated) -> None:
        self.commits += 1
        if index in self.first:
            # Only a delivered result may repeat; the scheduler never
            # fabricates an outcome for a task that already has one.
            assert not fabricated
            return
        self.first[index] = outcome.result if outcome is not None else None
        if outcome is None or not outcome.ok:
            self.failed += 1

    def check_note(self, note) -> None:
        fields = note.fields
        if note.kind == "chunk_requeued":
            assert fields["requeues"] <= self.policy.max_requeues
        elif note.kind == "chunk_bisected":
            halves = [self.schedule.chunks[h].entries
                      for h in fields["halves"]]
            assert all(halves)
            whole = [e[0] for e in self.sent[fields["chunk_id"]]]
            assert [e[0] for half in halves for e in half] == whole
            assert self.unexplained[fields["chunk_id"]] >= _POISON_LOSS_LIMIT

    # -- the workers' half ----------------------------------------------
    def busy(self) -> list:
        return sorted((w for w, job in self.workers.items()
                       if job is not None and not job[4]), key=str)

    def progress(self, worker) -> None:
        """One message from ``worker``: started, a task, or a crash."""
        job = self.workers[worker]
        chunk_id, entries, pos, started, _hung = job
        if not started:
            job[3] = True
            first_index, first_base, _ = entries[0]
            if not self.in_process and self.chaos is not None \
                    and self.chaos.hangs(first_index, first_base):
                job[4] = True
            self.feed(ChunkStarted(chunk_id, worker))
            return
        index, base, _item = entries[pos]
        if not self.in_process and (
                index == self.poison or self.chaos is not None
                and self.chaos.kills(index, base)):
            self.crash(worker)
            return
        ok = self.data.draw(st.integers(0, 9), label="outcome") > 0
        outcome = _TaskOutcome(
            index=index, ok=ok, result=(index, len(self.delivered)) if ok
            else None, wall_s=0.001, attempts=1,
            metrics=MetricsSnapshot(counters={f"task.{index}": 1})
            if ok else None,
            error_kind="" if ok else "error", error="" if ok else "boom",
        )
        event = TaskDone(chunk_id, outcome, worker)
        self.delivered.append(event)
        copies = 2 if self.data.draw(st.integers(0, 4),
                                     label="dup") == 0 else 1
        job[2] = pos + 1
        for _ in range(copies):
            if self.stop is None:
                self.feed(event)
        if self.stop is None and job[2] == len(entries) \
                and self.workers.get(worker) is job:
            self.workers[worker] = None
            self.feed(ChunkDone(chunk_id, worker))

    def crash(self, worker) -> None:
        job = self.workers.pop(worker)
        self.lost += 1
        self.crashing = None
        if job is not None:
            chunk_id, entries = job[0], job[1]
            bumped = _bump_lost_entries(entries, self.chaos, "crash")
            if all(a[1] == b[1] for a, b in zip(entries, bumped)):
                self.unexplained[chunk_id] += 1
            self.crashing = chunk_id
        self.feed(WorkerExited(worker))
        self.crashing = None

    def tick(self, dt: float = 0.0) -> None:
        self.now += dt
        self.feed(scheduler.Tick())

    # -- the run ---------------------------------------------------------
    def play(self, moves: int) -> None:
        self.tick()
        for _ in range(moves):
            if self.stop is not None:
                return
            move = self.data.draw(st.sampled_from(
                ["progress"] * 6 + ["late", "crash", "tick", "drain"]),
                label="move")
            if move == "progress" and self.busy():
                self.progress(self.data.draw(st.sampled_from(self.busy()),
                                             label="worker"))
            elif move == "late" and self.delivered:
                self.feed(self.data.draw(st.sampled_from(self.delivered),
                                         label="late"))
            elif move == "crash" and self.workers and not self.in_process:
                self.crash(self.data.draw(
                    st.sampled_from(sorted(self.workers)), label="victim"))
            elif move == "tick":
                self.tick(self.data.draw(st.sampled_from(
                    [0.05, 1.0, 5.0, _LONG_S]), label="dt"))
            elif move == "drain":
                self.feed(scheduler.DrainRequested("test"))
            if self.stop is None:
                self.tick()
        # Run out: every worker that can answer does, then time passes.
        for _ in range(2000):
            if self.stop is not None:
                return
            busy = self.busy()
            for worker in busy:
                if self.stop is None and worker in self.workers \
                        and self.workers[worker] is not None:
                    self.progress(worker)
            if self.stop is None:
                self.tick(0.0 if busy else _LONG_S)
        raise AssertionError("the sweep never stopped")


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(
    data=st.data(),
    n=st.integers(1, 10),
    chunksize=st.integers(1, 4),
    jobs=st.integers(1, 3),
    max_requeues=st.integers(0, 3),
    max_respawns=st.integers(0, 4),
    backoff=st.sampled_from([0.0, 0.5]),
    chaos=st.one_of(st.none(), st.builds(
        ChaosPolicy,
        kill_p=st.sampled_from([0.0, 0.3]),
        hang_p=st.sampled_from([0.0, 0.3]),
        respawn_fail_p=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 50),
    )),
    poison=st.one_of(st.none(), st.integers(0, 9)),
    moves=st.integers(0, 40),
)
def test_any_interleaving_keeps_the_scheduling_invariants(
        data, n, chunksize, jobs, max_requeues, max_respawns, backoff,
        chaos, poison, moves):
    policy = TaskPolicy(
        timeout_s=1.0, fail_fast=False, max_requeues=max_requeues,
        max_respawns=max_respawns, respawn_backoff_s=backoff,
        drain_timeout_s=5.0,
    )
    world = _World(data, n, chunksize, jobs, policy, chaos, poison)
    world.play(moves)
    stop, state, timing = world.stop, world.state, world.timing

    # Each task ends committed exactly once (ok or failed) or, after a
    # drain, stranded; the first delivery of a result is the one kept.
    assert len(state.committed) == len(world.first)
    if stop.reason == "drained":
        assert len(state.committed) + stop.tasks == n
    else:
        assert stop.reason == "done"
        assert len(state.committed) == n
    for index, result in world.first.items():
        assert state.results[index] == result

    # Budgets hold.
    assert world.spawn_actions <= world.schedule.respawns_used <= max_respawns

    # The folded counters equal the facts noted and observed.
    assert timing.duplicate_results == world.commits - len(world.first)
    assert timing.failures == world.failed
    assert len(timing.quarantined) == world.quarantines
    assert timing.lost_workers == world.lost == world.notes["worker_lost"]
    assert timing.respawns == world.spawned
    vetoed = world.schedule.respawns_used - world.spawn_actions \
        - len(world.schedule.spawns)    # booked, never due before the end
    assert timing.respawn_failures == world.spawn_failures + vetoed
    assert timing.lease_expiries == world.notes["lease_expired"]
    assert timing.requeues == world.notes["chunk_requeued"]
    assert timing.bisections == world.notes["chunk_bisected"]
