"""Summary statistics and failure accounting for benchmark samples."""

from __future__ import annotations

import math
import statistics

__all__ = [
    "TAIL_BEYOND",
    "tail_percentile",
    "summarize",
    "quartile_spread",
    "Ledger",
]

# The tail percentile reported is the highest with this many samples
# beyond it.
TAIL_BEYOND = 10


def tail_percentile(samples):
    """The highest nearest-rank percentile with ``TAIL_BEYOND`` samples
    above it.

    Returns ``(percentile, value)``, or ``None`` when there are not more
    than ``TAIL_BEYOND`` samples.  With ``n`` samples the rank is
    ``n - TAIL_BEYOND``, so exactly ``TAIL_BEYOND`` samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, ordered[rank - 1]


def summarize(samples) -> dict:
    """Median, tail percentile and sample count of ``samples``."""
    samples = list(samples)
    tail = tail_percentile(samples)
    return {
        "n": len(samples),
        "median": statistics.median(samples),
        "tail_pct": None if tail is None else tail[0],
        "tail": None if tail is None else tail[1],
    }


def quartile_spread(samples) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / mid if mid else math.inf


class Ledger:
    """Attempted and failed operations across a run's repetitions.

    An operation is a sweep task or a thermal solve.  A repetition whose
    output check fails counts every one of its operations as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, operations: int, failures: int, output_ok: bool) -> None:
        """Account one repetition."""
        if operations < 0 or failures < 0 or failures > operations:
            raise ValueError(
                f"bad accounting: {failures} failed of {operations}"
            )
        self.attempted += operations
        self.failed += failures if output_ok else operations

    def fail_all(self) -> None:
        """Mark every operation accounted so far as failed."""
        self.failed = self.attempted

    @property
    def failed_ratio(self) -> float:
        """Failed over attempted operations (0.0 when nothing ran)."""
        return self.failed / self.attempted if self.attempted else 0.0
