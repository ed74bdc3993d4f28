"""Output checks: canonical digests and tolerance comparison to references.

Simulated statistics must match their references bit for bit.  Thermal
temperatures may differ by at most 1e-6 °C (a temperature difference by
twice that), so a solver swap can still pass, and frequency fractions by
the 1e-3 resolution of the bisection that finds them.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
from pathlib import Path

__all__ = [
    "normalize",
    "digest",
    "compare",
    "References",
    "TOLERANCES",
]

# compare reports at most this many mismatches.
MAX_MISMATCHES = 5

# Per workload: (glob over "/"-joined output paths, absolute tolerance).
# Anything no pattern names must be equal.
TOLERANCES: dict[str, list[tuple[str, float]]] = {
    "fig6_suite": [],
    "thermal_fig4": [
        ("fig4/*/temp_*", 1e-6),
        ("frequency/*", 1e-3),
    ],
    "report_pool": [
        ("fig4/*/temp_*", 1e-6),
        ("fig4_variants/*/*", 2e-6),
    ],
}


def normalize(obj):
    """``obj`` as plain JSON data (tuples become lists, keys strings)."""
    return json.loads(json.dumps(obj, default=str))


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(normalize(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _tolerance(path: str, rules) -> float:
    for pattern, tol in rules:
        if fnmatch.fnmatchcase(path, pattern):
            return tol
    return 0.0


def compare(actual, expected, rules=(), path: str = "") -> list[str]:
    """Mismatches between ``actual`` and ``expected`` (both normalized),
    at most ``MAX_MISMATCHES`` of them."""
    out: list[str] = []

    def walk(a, e, where):
        if len(out) >= MAX_MISMATCHES:
            return
        if isinstance(e, dict) and isinstance(a, dict):
            if set(a) != set(e):
                out.append(f"{where or '/'}: keys {sorted(set(a) ^ set(e))} differ")
                return
            for key in sorted(e):
                walk(a[key], e[key], f"{where}/{key}" if where else key)
        elif isinstance(e, list) and isinstance(a, list):
            if len(a) != len(e):
                out.append(f"{where}: length {len(a)} != {len(e)}")
                return
            for i, (x, y) in enumerate(zip(a, e)):
                walk(x, y, f"{where}/{i}")
        elif (
            isinstance(e, float) and isinstance(a, (int, float))
            and not isinstance(a, bool)
        ):
            tol = _tolerance(where, rules)
            if not abs(a - e) <= tol:
                out.append(f"{where}: {a!r} != {e!r} (tolerance {tol:g})")
        elif a != e or type(a) is not type(e):
            out.append(f"{where}: {a!r} != {e!r}")

    walk(actual, expected, path)
    return out


class References:
    """Committed reference outputs of one workload.

    The file maps a seed (or ``"*"`` for a workload the seed does not
    enter) to ``{"digest": ..., "outputs": ...}``; ``outputs`` is kept for
    a few seeds only, the digest for every recorded seed.
    """

    def __init__(self, path: Path):
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def entry(self, seed: int) -> dict | None:
        """The reference for ``seed``, if one is committed."""
        entries = self.data.get("entries", {})
        return entries.get(str(seed)) or entries.get("*")

    def check(self, workload: str, seed: int, outputs) -> tuple[bool | None, list[str]]:
        """``(True, [])`` on a match, ``(False, mismatches)`` on a
        mismatch, ``(None, [])`` when no reference covers ``seed``."""
        ref = self.entry(seed)
        if ref is None:
            return None, []
        outputs = normalize(outputs)
        if "outputs" in ref:
            problems = compare(outputs, ref["outputs"], TOLERANCES[workload])
        elif digest(outputs) != ref["digest"]:
            problems = [f"digest {digest(outputs)} != reference {ref['digest']}"]
        else:
            problems = []
        return not problems, problems
