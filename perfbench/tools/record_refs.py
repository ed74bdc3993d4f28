"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, on the commit whose outputs define
correct behaviour:

    python3 perfbench/tools/record_refs.py fig6_suite --seeds 0-20 42 --full 42
    python3 perfbench/tools/record_refs.py thermal_fig4
    python3 perfbench/tools/record_refs.py report_pool

A seeded workload gets one entry per seed: its output digest, plus the
full outputs for the ``--full`` seeds so a mismatch can be located.  A
workload the seed does not enter gets one ``"*"`` entry with full outputs.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from benchlib.checks import digest  # noqa: E402
from benchlib.host import fingerprint  # noqa: E402
from benchlib.workloads import make_workload  # noqa: E402


def _seeds(tokens):
    out = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workload")
    p.add_argument("--seeds", nargs="*", default=["42"],
                   help="seeds or ranges like 0-20 (seeded workloads)")
    p.add_argument("--full", nargs="*", type=int, default=[42],
                   help="seeds whose full outputs are stored")
    args = p.parse_args(argv)
    spec = json.loads((HERE / "spec.json").read_text())
    seeded = spec["workloads"][args.workload]["seeded"]
    seeds = _seeds(args.seeds) if seeded else [42]
    entries = {}
    for seed in seeds:
        workload = make_workload(args.workload, spec, seed, HERE / "out" / "refs")
        workload.setup()
        outputs = workload.run()
        problems = workload.sanity(outputs)
        if problems:
            raise SystemExit(f"seed {seed}: {problems}")
        entry = {"digest": digest(outputs)}
        if not seeded or seed in args.full:
            entry["outputs"] = outputs
        entries[str(seed) if seeded else "*"] = entry
        print(f"{args.workload} seed {seed}: {entry['digest']}", flush=True)
    host = fingerprint(ROOT)
    data = {
        "workload": args.workload,
        "recorded_with": {k: host[k] for k in ("git_sha", "source_sha256")},
        "entries": entries,
    }
    path = HERE / "refs" / f"{args.workload}.json"
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
