"""The traced replay reproduces the timed run's outputs."""

import json
from pathlib import Path

from benchlib.layers import install, measure, per_layer_metrics, replay
from benchlib.tracer import Patches, Tracer, span_totals
from benchlib.workloads import make_workload
from repro.common.config import ChipModel
from repro.experiments import engine
from repro.experiments import thermal
from repro.obs import events
from repro.workloads.profiles import get_profile

SPEC = json.loads((Path(__file__).resolve().parents[1] / "spec.json").read_text())


def test_replay_equals_timed_run_on_a_tiny_window(tmp_path):
    spec = json.loads(json.dumps(SPEC))
    spec["workloads"]["fig6_suite"]["inputs"]["window"] = {
        "warmup": 300, "measured": 1200,
    }
    workload = make_workload(
        "fig6_suite", spec, 7, tmp_path,
        profiles=[get_profile("gzip"), get_profile("mcf")],
    )
    workload.setup()
    untraced = measure(workload)
    tracer = Tracer("tiny")
    traced = replay(workload, tracer)
    assert traced.outputs == untraced.outputs
    assert len(untraced.outputs["sims"]) == 8
    assert untraced.operations == traced.operations == 8
    assert workload.sanity(untraced.outputs) == []

    metrics = per_layer_metrics(traced, [untraced], workload)
    assert metrics["core.rmt.run_calls"][0] == 6
    assert metrics["core.leading.run_calls"][0] == 2
    assert metrics["core.checker.drain_calls"][0] > 0
    assert metrics["thermal.factorizations"][0] == 0
    assert metrics["thermal.factorize_calls"][0] == 0
    for layer in ("isa.trace", "cache.preload", "core.rmt.run"):
        assert 0 < metrics[f"{layer}_self_s"][0] <= metrics[f"{layer}_s"][0]

    bench = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    declared = {m["name"] for m in bench["per_layer"]}
    assert set(metrics) | {"failed_ratio"} == declared


class _FloorplansOnPool:
    """Builds two floorplans on the local pool, one per worker."""

    def run(self):
        events.begin_run("perfbench-test-pool")
        plans = engine.parallel_map(
            thermal.standard_floorplan, [ChipModel("2d-a"), ChipModel("3d-2a")],
            jobs=2, chunksize=1, executor="local", label="floorplans",
        )
        return len(plans)


def test_spans_in_pool_workers_reach_the_layer_totals():
    tracer = Tracer("pool")
    with Patches() as patches:
        install(tracer, patches)
        rep = measure(_FloorplansOnPool())
    assert rep.outputs == 2
    assert {t.executor for t in rep.sweeps} == {"local"}
    # The parent recorded no floorplan span: both ran in workers.
    assert not [s for s in tracer.records() if s["name"] == "floorplan.build"]
    totals = span_totals(rep.counters, "floorplan.build")
    assert totals["calls"] == 2
    assert 0 < totals["self_s"] <= totals["wall_s"]
