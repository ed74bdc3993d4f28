"""Median/percentile helpers and failure accounting."""

import pytest

from benchlib.stats import Ledger, quartile_spread, summarize, tail_percentile


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(10)) is None
    pct, value = tail_percentile(range(11))
    assert value == 0 and pct == pytest.approx(100 / 11)
    # 76 samples: rank 66 leaves exactly ten above it.
    samples = list(range(76))[::-1]
    pct, value = tail_percentile(samples)
    assert value == 65
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100 * 66 / 76)


def test_summarize_reports_count_and_missing_tail():
    s = summarize([2.0, 1.0, 3.0])
    assert s == {"n": 3, "median": 2.0, "tail_pct": None, "tail": None}
    assert summarize([4.0, 1.0, 2.0, 3.0])["median"] == 2.5


def test_quartile_spread_is_relative_to_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    assert quartile_spread(values) == pytest.approx(0.1)
    assert quartile_spread([5.0] * 4) == 0.0


def test_ledger_counts_task_failures_and_failed_checks():
    ledger = Ledger()
    ledger.add(operations=76, failures=0, output_ok=True)
    assert ledger.failed_ratio == 0.0
    ledger.add(operations=76, failures=2, output_ok=True)
    assert (ledger.attempted, ledger.failed) == (152, 2)
    # A repetition whose outputs are wrong fails all of its operations.
    ledger.add(operations=48, failures=1, output_ok=False)
    assert (ledger.attempted, ledger.failed) == (200, 50)
    assert ledger.failed_ratio == pytest.approx(0.25)
    ledger.fail_all()
    assert ledger.failed_ratio == 1.0


def test_ledger_rejects_impossible_accounting():
    assert Ledger().failed_ratio == 0.0
    with pytest.raises(ValueError):
        Ledger().add(operations=3, failures=4, output_ok=True)
    with pytest.raises(ValueError):
        Ledger().add(operations=-1, failures=0, output_ok=True)
