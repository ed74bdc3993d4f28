"""Check that the benchmark is steady: run it on several seeds and report,
for each end-to-end metric, the median and the quartile spread as a
share of the median, against the bound in ``BENCHMARK.json``.

Run from the root of a checkout:

    python3 perfbench/tools/steadiness.py fig6_suite --seeds 0-9
    python3 perfbench/tools/steadiness.py fig6_suite --seeds 10-19 \\
        --compare perfbench/out/steadiness-fig6_suite-0-9.json

A spread is flagged when it reaches a third of the metric's bound
(``setup_s`` is exempt); with ``--compare``, a median that is worse than
the earlier set's by more than the bound is flagged too.  Exits 1 when
anything is flagged or a run fails its output checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchlib.stats import quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workload")
    p.add_argument("--seeds", default="0-9", help="range such as 0-9")
    p.add_argument("--compare", type=Path,
                   help="summary of an earlier set to compare medians with")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = _seeds(args.seeds)
    values: dict[str, list[float]] = {}
    flagged = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            flagged.append(f"seed {seed}: correct={result['correct']} "
                           f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()
        ), flush=True)

    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    summary = {}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        mid, spread = statistics.median(values[name]), quartile_spread(values[name])
        summary[name] = {"median": mid, "spread": spread, "values": values[name]}
        line = (f"{name}: median {mid:.4f} {metric['unit']}, spread "
                f"{spread:.2%} (bound {bound:.0%}, target < {bound / 3:.2%})")
        if name != "setup_s" and spread >= bound / 3:
            flagged.append(f"{name} spread {spread:.2%}")
        if name in earlier:
            shift = mid / earlier[name]["median"] - 1.0
            line += f", {shift:+.2%} vs earlier set"
            if shift > bound:
                flagged.append(f"{name} median worse by {shift:.2%}")
        print(line)
    path = HERE / "out" / f"steadiness-{args.workload}-{args.seeds}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    for item in flagged:
        print("FLAGGED " + item)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
