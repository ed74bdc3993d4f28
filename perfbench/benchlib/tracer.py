"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: a :class:`Patches` set swaps a
public function or method for a wrapper that opens a span, and restores
the original afterwards.  Spans record name, start, end, CPU time, self
time and the span that was open when they began; every span of one
workload run carries the same trace id.  Self time is a span's duration
minus the part of it that its children cover.

Span records stay in the process that made them, so a forked pool
worker's records are lost with the worker.  Every span therefore also
adds its totals to the program's metric registry (counters named
``SPAN_COUNTER + <name> + ".wall_ns"`` and so on), which the engine ships
back from workers in each task's metric snapshot.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

from repro.obs.metrics import get_registry

__all__ = [
    "SPAN_COUNTER",
    "Tracer",
    "Patches",
    "span_totals",
]

SPAN_COUNTER = "perfbench.span."

# Patches.function rebinds a function in the modules of this package.
PACKAGE = "repro"


class Tracer:
    """Collects spans in memory; :meth:`records` hands them out at the end."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self._spans: list[dict] = []
        # Open spans, innermost last, with the seconds their finished
        # children cover.  Spans of one thread nest, so children never
        # overlap and their durations add up to the covered part.
        self._open: list[tuple[dict, list[float]]] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span."""
        record = {
            "id": len(self._spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._open[-1][0]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "cpu_s": time.process_time(),
            "self_s": None,
        }
        covered = [0.0]
        self._spans.append(record)
        self._open.append((record, covered))
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu_s"] = time.process_time() - record["cpu_s"]
            self._open.pop()
            duration = record["end"] - record["start"]
            record["self_s"] = duration - covered[0]
            if self._open:
                self._open[-1][1][0] += duration
            self._count(record, duration)

    def _count(self, record: dict, duration: float) -> None:
        registry = get_registry()
        prefix = SPAN_COUNTER + record["name"] + "."
        registry.counter(prefix + "calls").inc()
        registry.counter(prefix + "self_ns").inc(round(record["self_s"] * 1e9))
        # A span inside a same-named span is already in the outer one's
        # inclusive times.
        if not any(r["name"] == record["name"] for r, _ in self._open):
            registry.counter(prefix + "wall_ns").inc(round(duration * 1e9))
            registry.counter(prefix + "cpu_ns").inc(round(record["cpu_s"] * 1e9))

    def wrap(self, fn, name: str):
        """``fn`` with every call inside a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def records(self) -> list[dict]:
        """Every span this process recorded so far, in start order."""
        return list(self._spans)


def span_totals(counters: dict, name: str) -> dict:
    """Inclusive wall and CPU seconds, self seconds and call count of the
    spans called ``name``, from span counters summed over processes."""
    prefix = SPAN_COUNTER + name + "."
    return {
        "wall_s": counters.get(prefix + "wall_ns", 0) / 1e9,
        "self_s": counters.get(prefix + "self_ns", 0) / 1e9,
        "cpu_s": counters.get(prefix + "cpu_ns", 0) / 1e9,
        "calls": counters.get(prefix + "calls", 0),
    }


class Patches:
    """Reversible attribute swaps on the program's modules and classes."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def attr(self, owner, name: str, replacement) -> None:
        """Set ``owner.name`` to ``replacement`` until :meth:`restore`."""
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def method(self, cls, name: str, wrap) -> None:
        """Replace method ``cls.name`` by ``wrap(original)``."""
        self.attr(cls, name, wrap(cls.__dict__[name]))

    def function(self, fn, wrap) -> None:
        """Replace ``fn`` in every loaded module of the program that binds
        it by name, so callers reach the wrapper whichever module they
        imported it from."""
        wrapped = wrap(fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.attr(module, attr, wrapped)

    def restore(self) -> None:
        """Undo every swap, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
