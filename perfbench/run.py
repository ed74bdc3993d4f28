"""Benchmark of the reproduction's simulator, thermal solver and report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig6_suite --seed 42 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up time, timed-phase
wall time, peak memory); ``--trace 1`` replays the workload with a span
around every layer's entry point and prints the per-layer metrics.  Every
run checks its outputs against the references in ``perfbench/refs`` and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workload inputs and the layer
map are in ``perfbench/spec.json``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from benchlib.checks import References, digest  # noqa: E402
from benchlib.stats import Ledger, summarize  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def _parse(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="repeat the timed phase until this much is measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one cold set-up, print it, and exit")
    return p.parse_args(argv)


def _say(line: str) -> None:
    print(line, flush=True)


def _print_metric(name, value, unit, samples=None, label="metric"):
    detail = ""
    if samples is not None:
        s = summarize(samples)
        tail = (
            f"p{s['tail_pct']:.1f} {s['tail']:.4f}" if s["tail"] is not None
            else "tail n/a (fewer than 11 samples)"
        )
        detail = f"  (median of n={s['n']}; {tail})"
    _say(f"{label} {name} = {value:.6g} {unit}{detail}")


def _setup_probe(args) -> float:
    """One cold set-up in a fresh interpreter, imports included."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _check(workload, refs, outputs, first_digest):
    """Every output check; returns ``(ok, digest, lines to print)``."""
    lines = [f"check FAILED sanity: {p}" for p in workload.sanity(outputs)]
    ok = not lines
    d = digest(outputs)
    if first_digest is not None and d != first_digest:
        ok = False
        lines.append("check FAILED: outputs differ between repetitions")
    match, mismatches = refs.check(workload.name, workload.seed, outputs)
    if match is None:
        lines.append(
            f"check: no committed reference for seed {workload.seed}; "
            f"compare this digest across commits: {d}"
        )
    elif match:
        lines.append(f"check: outputs match the committed reference ({d})")
    else:
        ok = False
        lines += [f"check FAILED reference: {m}" for m in mismatches]
    return ok, d, lines


def _result(ok, ledger, metrics):
    return {
        "correct": ok,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def _timed(args, spec, workload, refs, first_setup_s):
    from benchlib.host import PeakRss
    from benchlib.layers import measure

    setups = [first_setup_s] + [
        _setup_probe(args) for _ in range(spec["setup_samples"] - 1)
    ]
    # A workload whose repetition is long still takes a median of several.
    min_reps = spec["workloads"][args.workload].get("min_repetitions", 1)
    ledger, reps, first_digest, ok_all = Ledger(), [], None, True
    with PeakRss(workers=workload.jobs > 1) as rss:
        while True:
            rep = measure(workload)
            ok, d, lines = _check(workload, refs, rep.outputs, first_digest)
            if first_digest is None or not ok:
                for line in lines:
                    _say(f"rep {len(reps) + 1} {line}")
            first_digest = first_digest or d
            ok_all = ok_all and ok
            ledger.add(rep.operations, rep.task_failures, ok)
            reps.append(rep)
            if (sum(r.wall_s for r in reps) >= args.seconds
                    and len(reps) >= min_reps):
                break
            workload.reset()
    for line in workload.paper_points(reps[0].outputs):
        _say("paper " + line)
    _say("paper note: the model is checked only against these published points")

    runs = [r.wall_s for r in reps]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(runs), "s"),
        "peak_rss_mb": (rss.peak_mb(), "MB"),
    }
    _print_metric("setup_s", *metrics["setup_s"], setups)
    _print_metric("run_s", *metrics["run_s"], runs)
    _say("info run_s samples: " + " ".join(f"{r:.4f}" for r in runs))
    _print_metric("peak_rss_mb", *metrics["peak_rss_mb"])
    _say(f"info most pool workers alive at once: {rss.max_workers}")
    instructions = workload.sim_instructions()
    if instructions:
        _print_metric("sim_minstr_per_s",
                      instructions / 1e6 / statistics.median(runs), "Minstr/s")
    _print_metric("failed_ratio", ledger.failed_ratio, "ratio")
    return _result(ok_all, ledger, metrics)


def _traced(args, workload, refs):
    from benchlib.layers import measure, per_layer_metrics, replay
    from benchlib.tracer import Tracer

    # Untraced repetitions on both sides of the traced replay, so the
    # tracing overhead is not skewed by which run came first.
    before = measure(workload)
    ok, _digest, lines = _check(workload, refs, before.outputs, None)
    trace_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(trace_id)
    traced = replay(workload, tracer)
    workload.reset()
    after = measure(workload)
    ledger = Ledger()
    for rep in (before, after):
        ledger.add(rep.operations, rep.task_failures, ok)
    if not traced.outputs == before.outputs == after.outputs:
        ok = False
        ledger.fail_all()
        lines.append("check FAILED: the traced replay's outputs differ "
                     "from the untraced runs'")
    for line in lines:
        _say(line)
    _say(f"info timed phase: untraced {before.wall_s:.4f} s, traced "
         f"{traced.wall_s:.4f} s, untraced {after.wall_s:.4f} s")

    spans = tracer.records()
    metrics = per_layer_metrics(traced, [before, after], workload)
    metrics["failed_ratio"] = (ledger.failed_ratio, "ratio")
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)
    per_call: dict[str, list[float]] = {}
    for s in spans:
        per_call.setdefault(s["name"], []).append(s["end"] - s["start"])
    for name, durations in per_call.items():
        _print_metric(name, statistics.median(durations), "s", durations,
                      label="per-call")

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{trace_id}.json"
    spans_path.write_text(json.dumps(spans))
    _say(f"info spans written to {spans_path.relative_to(ROOT)}")
    _say("info per-call figures and the span file cover this process only; "
         "pool workers' spans reach the layer metrics through counters")
    return _result(ok, ledger, metrics)


def _exit_on_signal(signum, _frame):
    # Unwinds like an exception, so subprocess.run kills a set-up probe
    # and the finally below stops pool workers.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_signal)
    spec = json.loads((HERE / "spec.json").read_text())
    args = _parse(argv, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from benchlib.host import fingerprint
    from benchlib.workloads import make_workload

    workload = make_workload(args.workload, spec, args.seed, OUT / args.workload)
    workload.setup()
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    refs = References(HERE / "refs" / f"{args.workload}.json")
    _say("host " + json.dumps(fingerprint(ROOT), sort_keys=True))
    _say(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
         f"trace={args.trace} "
         f"inputs={json.dumps(workload.inputs, sort_keys=True)}")
    try:
        if args.trace:
            result = _traced(args, workload, refs)
        else:
            result = _timed(args, spec, workload, refs, setup_s)
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
