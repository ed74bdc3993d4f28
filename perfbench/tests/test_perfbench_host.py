"""Peak memory of the process tree."""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

from benchlib.host import PeakRss, _status_kib

WORKER_MB = 64


def _hold_memory():
    block = bytearray(b"\x01") * (WORKER_MB << 20)
    time.sleep(0.6)
    del block


def test_pools_that_run_one_after_another_do_not_add_up():
    ctx = multiprocessing.get_context("fork")
    with PeakRss(workers=True) as rss:
        own_mb = _status_kib(os.getpid(), "VmRSS") / 1024
        # Two sweeps, each on a pool of its own, as the report runs them.
        for _ in range(2):
            with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
                pool.submit(_hold_memory).result()
    extra = rss.peak_mb() - own_mb
    # One live worker at a time: its own block plus the pages it shares
    # with the parent, never two workers' worth.
    assert extra >= 0.8 * WORKER_MB
    assert extra < own_mb + 1.5 * WORKER_MB
    assert rss.max_workers == 1


def test_without_workers_only_the_own_peak_counts():
    with PeakRss(workers=False) as rss:
        pass
    assert rss.peak_mb() > 0
    assert rss.max_workers == 0
