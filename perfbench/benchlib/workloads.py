"""The three benchmark workloads, as calls into the program's public API.

Each workload has a ``setup`` (the artifacts built ahead of the timed
phase), a ``run`` (the timed phase, returning its outputs as plain JSON
data), and a ``reset`` that returns the process to the state ``run``
expects after a previous repetition.  Calls go through module attributes
(``perf.fig6_performance``) so the traced run's wrappers are reached.
"""

from __future__ import annotations

import dataclasses
import gc
from pathlib import Path

from repro.common import memo
from repro.common.config import ChipModel, LeadingCoreConfig, ThermalConfig
from repro.experiments import engine
from repro.experiments import perf
from repro.experiments import report
from repro.experiments import runner
from repro.experiments import thermal
from repro.experiments import thermal_constraint
from repro.obs import events
from repro.workloads.profiles import spec2k_suite

from benchlib.checks import normalize
from benchlib.tracer import Patches

__all__ = ["WORKLOADS", "make_workload"]


def _monotone(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def _fig4_checks(rows) -> list[str]:
    problems = []
    for key in ("temp_2d_2a_c", "temp_3d_2a_c"):
        if not _monotone([r[key] for r in rows]):
            problems.append(f"fig4 {key} not monotone in checker power")
    if len({r["temp_2d_a_c"] for r in rows}) != 1:
        problems.append("fig4 2d-a baseline differs between rows")
    return problems


def _fig4_paper_points(rows) -> list[str]:
    by_power = {r["checker_power_w"]: r for r in rows}
    lines = []
    for power, paper in ((7, 4.0), (15, 7.0)):
        row = by_power.get(power)
        if row is not None:
            delta = row["temp_3d_2a_c"] - row["temp_2d_a_c"]
            lines.append(
                f"Fig. 4 3d-2a minus 2d-a at {power} W: model {delta:+.2f} C, "
                f"paper {paper:+.0f} C"
            )
    return lines


class Workload:
    """Common shape; subclasses fill in the calls."""

    name = ""

    def __init__(self, inputs: dict, seed: int, out_dir: Path):
        self.inputs = inputs
        self.seed = seed
        self.out_dir = out_dir
        self.jobs = inputs["jobs"]
        self.executor = inputs["executor"]

    def setup(self) -> None:
        """Pin the engine's worker count and backend, then build what the
        timed phase expects to find, starting from a cold cache."""
        engine.set_default_jobs(self.jobs)
        engine.set_default_executor(self.executor)
        memo.clear_cache()
        # Free the previous repetition's cyclic garbage before rebuilding,
        # so peak memory does not depend on when the collector last ran.
        gc.collect()

    def run(self):
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the post-setup state after a repetition."""

    def sim_instructions(self) -> int:
        """Simulated instructions per repetition, warm-up included (0 if
        the workload's count is not fixed by its inputs)."""
        return 0

    def sanity(self, outputs) -> list[str]:
        """Physical and structural checks that hold for every seed."""
        return []

    def paper_points(self, outputs) -> list[str]:
        """The model's values next to the paper's published points."""
        return []


class Fig6Suite(Workload):
    """Figure 6: every SPEC2k profile on every chip model, one process."""

    name = "fig6_suite"

    def __init__(self, inputs, seed, out_dir, profiles=None):
        super().__init__(inputs, seed, out_dir)
        self.window = runner.SimulationWindow(**inputs["window"])
        self.profiles = profiles if profiles is not None else spec2k_suite()
        self.models = tuple(ChipModel(m) for m in inputs["chip_models"])

    def setup(self) -> None:
        super().setup()
        cache = memo.get_cache()
        leading = LeadingCoreConfig()
        for profile in self.profiles:
            cache.trace_arrays(profile, self.seed, self.window.total)
            cache.branch_stream_view(profile, self.seed)
            cache.trace_schedule(profile, self.seed, self.window.total, leading)
            for chip in self.models:
                runner.build_memory(chip).preload_profile(profile)

    def reset(self) -> None:
        self.setup()

    def run(self):
        events.begin_run("perfbench-fig6_suite")
        sims = {}
        original = perf.run_sim_task

        def recording(task):
            # Keeps every simulation's full result for the output checks.
            result = original(task)
            sims[f"{task.kind}:{task.profile.name}:{task.chip.value}"] = (
                dataclasses.asdict(result)
            )
            return result

        with Patches() as patches:
            patches.attr(perf, "run_sim_task", recording)
            rows = perf.fig6_performance(
                window=self.window, seed=self.seed, benchmarks=self.profiles,
                models=self.models, jobs=self.jobs,
            )
        return normalize({
            "ipc": {row.benchmark: row.ipc for row in rows},
            "sims": sims,
        })

    def sim_instructions(self) -> int:
        return len(self.profiles) * len(self.models) * self.window.total

    def sanity(self, outputs) -> list[str]:
        width = LeadingCoreConfig().commit_width
        problems = []
        for key, sim in outputs["sims"].items():
            lead = sim.get("leading", sim)
            if not 0 < lead["ipc"] <= width:
                problems.append(f"{key}: IPC {lead['ipc']} outside (0, {width}]")
            if "frequency_residency" in sim:
                total = sum(sim["frequency_residency"].values())
                if abs(total - 1.0) > 1e-9:
                    problems.append(f"{key}: DFS residency sums to {total}")
        expected = len(self.profiles) * len(self.models)
        if len(outputs["sims"]) != expected:
            problems.append(f"{len(outputs['sims'])} simulations, expected {expected}")
        return problems

    def paper_points(self, outputs) -> list[str]:
        ipc = outputs["ipc"].values()
        mean = {
            chip: sum(row[chip] for row in ipc) / len(ipc)
            for chip in ("2d-2a", "3d-2a") if all(chip in row for row in ipc)
        }
        if len(mean) < 2:
            return []
        gain = mean["3d-2a"] / mean["2d-2a"] - 1.0
        return [
            f"3d-2a vs 2d-2a mean IPC: model {gain:+.2%}, paper +5.5%"
        ]


class ThermalFig4(Workload):
    """Figure 4 and the §3.3 thermally equivalent frequency."""

    name = "thermal_fig4"

    def setup(self) -> None:
        super().setup()
        cache = memo.get_cache()
        for chip in self.inputs["factorized_stacks"]:
            cache.thermal_model(
                thermal.standard_floorplan(ChipModel(chip)), ThermalConfig()
            )

    def run(self):
        events.begin_run("perfbench-thermal_fig4")
        rows = thermal.fig4_thermal_sweep(
            checker_powers_w=tuple(self.inputs["fig4_checker_powers_w"]),
            jobs=self.jobs,
        )
        frequency = {
            str(power): thermal_constraint.thermally_equivalent_frequency(
                float(power)
            )
            for power in self.inputs["frequency_checker_powers_w"]
        }
        return normalize({
            "fig4": [dataclasses.asdict(r) for r in rows],
            "frequency": frequency,
        })

    def sanity(self, outputs) -> list[str]:
        problems = _fig4_checks(outputs["fig4"])
        for power, fraction in outputs["frequency"].items():
            if not 0.6 <= fraction <= 1.0:
                problems.append(f"frequency at {power} W is {fraction}")
        return problems

    def paper_points(self, outputs) -> list[str]:
        lines = _fig4_paper_points(outputs["fig4"])
        fraction = outputs["frequency"].get("7")
        if fraction is not None:
            lines.append(
                f"thermally equivalent frequency at 7 W: model "
                f"{fraction * 2.0:.3f} GHz, paper 1.9 GHz"
            )
        return lines


class ReportPool(Workload):
    """The full ``repro report`` on the local process pool."""

    name = "report_pool"

    def __init__(self, inputs, seed, out_dir):
        super().__init__(inputs, seed, out_dir)
        self.window = runner.SimulationWindow(**inputs["window"])

    def reset(self) -> None:
        memo.clear_cache()

    def run(self):
        data = report.generate_report(
            self.out_dir / "report", window=self.window
        )
        return normalize({
            key: value for key, value in data.items()
            if key not in ("sweep_timings", "metrics")
        })

    def sanity(self, outputs) -> list[str]:
        problems = _fig4_checks(outputs["fig4"])
        total = sum(outputs["fig7"]["fractions"].values())
        if abs(total - 1.0) > 1e-9:
            problems.append(f"fig7 residency sums to {total}")
        return problems

    def paper_points(self, outputs) -> list[str]:
        return _fig4_paper_points(outputs["fig4"])


WORKLOADS = {w.name: w for w in (Fig6Suite, ThermalFig4, ReportPool)}


def make_workload(name: str, spec: dict, seed: int, out_dir: Path, **kw):
    """The workload ``name`` with its inputs from the spec."""
    return WORKLOADS[name](spec["workloads"][name]["inputs"], seed, out_dir, **kw)
