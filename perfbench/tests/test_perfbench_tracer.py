"""Span recording, self time, and reversible patching."""

import time
import types

import pytest

from benchlib.checks import compare
from benchlib.tracer import SPAN_COUNTER, Patches, Tracer, span_totals
from repro.obs.metrics import get_registry


class FakeClock:
    """Stands in for ``time.perf_counter``/``process_time``: each read
    returns the next of the given instants."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self):
        return next(self._instants)


def _counters() -> dict:
    return dict(get_registry().snapshot(spans=False).counters)


def _delta(before: dict) -> dict:
    after = _counters()
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


def test_self_time_subtracts_every_child_once(monkeypatch):
    # Wall reads: root starts 0; a 1-4; b 4-6 (back to back with a);
    # c 8-9 nested in b's sibling d 7-10; root ends 10.
    wall = FakeClock([0.0, 1.0, 4.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 10.0])
    monkeypatch.setattr(time, "perf_counter", wall)
    monkeypatch.setattr(time, "process_time", lambda: 0.0)
    tracer = Tracer("t")
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        with tracer.span("d"):
            with tracer.span("c"):
                pass
    root, a, b, d, c = tracer.records()
    # Children cover [1, 6] and [7, 10] of the root: 8 of its 10 s; the
    # grandchild c is inside d and not subtracted from the root again.
    assert root["self_s"] == pytest.approx(2.0)
    assert a["self_s"] == pytest.approx(3.0)
    assert d["self_s"] == pytest.approx(2.0)
    assert c["self_s"] == pytest.approx(1.0)
    assert c["parent"] == d["id"] and d["parent"] == root["id"]


def test_span_counters_do_not_double_count_same_name_nesting(monkeypatch):
    wall = FakeClock([0.0, 1.0, 2.0, 2.0, 4.0, 5.0])
    cpu = FakeClock([0.0, 1.0, 2.0, 2.0, 4.0, 5.0])
    monkeypatch.setattr(time, "perf_counter", wall)
    monkeypatch.setattr(time, "process_time", cpu)
    before = _counters()
    tracer = Tracer("t")
    with tracer.span("test.x"):
        with tracer.span("test.x"):
            pass
        with tracer.span("test.y"):
            pass
    counters = _delta(before)
    assert span_totals(counters, "test.x") == {
        "wall_s": 5.0, "self_s": pytest.approx(3.0), "cpu_s": 5.0, "calls": 2,
    }
    assert span_totals(counters, "test.y")["self_s"] == pytest.approx(2.0)
    assert span_totals(counters, "test.none") == {
        "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "calls": 0,
    }
    assert all(k.startswith(SPAN_COUNTER) for k in counters)


def test_tracer_records_parents_and_one_trace_id():
    tracer = Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.records()
    assert outer["parent"] is None
    assert first["parent"] == second["parent"] == outer["id"]
    assert {s["trace"] for s in tracer.records()} == {"run-1"}
    assert all(s["end"] >= s["start"] for s in tracer.records())


def test_patches_wrap_and_restore():
    class Thing:
        def value(self):
            return 7

    module = types.ModuleType("repro_fake_for_test")
    tracer = Tracer("p")
    original = Thing.value
    with Patches() as patches:
        patches.method(Thing, "value", lambda fn: tracer.wrap(fn, "thing"))
        patches.attr(module, "__doc__", "patched")
        assert Thing().value() == 7
    assert Thing.value is original
    assert module.__doc__ is None
    assert [s["name"] for s in tracer.records()] == ["thing"]


def test_compare_applies_tolerance_only_where_named():
    rules = [("fig4/*/temp_*", 1e-6)]
    expected = {"fig4": [{"temp_a": 70.0, "power": 7.0}], "n": 3}
    assert compare({"fig4": [{"temp_a": 70.0000005, "power": 7.0}], "n": 3},
                   expected, rules) == []
    assert compare({"fig4": [{"temp_a": 70.00001, "power": 7.0}], "n": 3},
                   expected, rules)
    assert compare({"fig4": [{"temp_a": 70.0, "power": 7.0 + 1e-12}], "n": 3},
                   expected, rules)
    assert compare({"fig4": [], "n": 3}, expected, rules)
    assert compare({"fig4": [{"temp_a": 70.0, "power": 7.0}], "n": 3.0},
                   expected, rules)
