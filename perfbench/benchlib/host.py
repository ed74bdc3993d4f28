"""Host fingerprint and peak-memory measurement."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import threading
from pathlib import Path

__all__ = ["fingerprint", "PeakRss"]


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, path and content."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path) -> dict:
    """CPU count, interpreter and library versions, code version."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
    }


def _status_kib(pid: int, field: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _descendants(root_pid: int) -> set[int]:
    parents: dict[int, int] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name may hold spaces; the ppid follows its ")".
        parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = set(), {root_pid}
    while frontier:
        frontier = {p for p, pp in parents.items() if pp in frontier} - found
        found |= frontier
    return found


# How often the sampler sums the resident memory of the process tree.
POLL_INTERVAL_S = 0.1


class PeakRss:
    """Peak resident memory of this process and its pool workers, MiB.

    The process's own peak comes from ``getrusage``.  With ``workers``, a
    thread also sums, every ``POLL_INTERVAL_S``, the current ``VmRSS`` of
    this process and every live descendant, and keeps the largest sum.
    Workers that never run at the same time therefore do not add up.  A
    page a forked worker shares with the parent counts in both.
    """

    def __init__(self, workers: bool):
        self._peak_kib = 0
        self.max_workers = 0
        self._stop = threading.Event()
        self._thread = (
            threading.Thread(target=self._poll, daemon=True) if workers
            else None
        )

    def _poll(self) -> None:
        me = os.getpid()
        while True:
            live = _descendants(me)
            total = sum(
                _status_kib(pid, "VmRSS") or 0 for pid in live | {me}
            )
            self._peak_kib = max(self._peak_kib, total)
            self.max_workers = max(self.max_workers, len(live))
            if self._stop.wait(POLL_INTERVAL_S):
                return

    def __enter__(self) -> "PeakRss":
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()

    def peak_mb(self) -> float:
        """The larger of the own peak and the largest sampled sum, MiB."""
        own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own_kib, self._peak_kib) / 1024.0
