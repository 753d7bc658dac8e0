import os
import subprocess
import sys

import numpy as np
import pytest

from lrtc import _fanout


_fork = os.fork


def _count_forks(monkeypatch):
    """A list that gains an entry for every process forked from now on."""
    forks = []

    def fork():
        forks.append(None)
        return _fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("runs", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_order(monkeypatch, workers, runs):
    forks = _count_forks(monkeypatch)
    values = np.arange(40.0)
    bounds = [40 * k // runs for k in range(runs + 1)]
    parent = os.getpid()

    def total(a, b):
        # a closure over a local array: it reaches the workers through the fork
        return a, b, values[a:b].sum(), os.getpid() != parent

    with _fanout.ordered_map(total, bounds, workers) as results:
        results = list(results)
    forked = workers >= 2 and runs >= 2
    assert results == [(a, b, values[a:b].sum(), forked) for a, b in zip(bounds, bounds[1:])]
    # no more workers than runs, and none for one worker or one run
    assert len(forks) == (min(workers, runs) if forked else 0)


def test_in_process_calls_run_lazily_one_at_a_time():
    calls = []
    with _fanout.ordered_map(lambda a, b: calls.append((a, b)) or b, [0, 2, 5, 9], 1) as results:
        assert calls == []
        assert next(results) == 2 and calls == [(0, 2)]
        assert list(results) == [5, 9]
    assert calls == [(0, 2), (2, 5), (5, 9)]


def test_a_call_that_raises_re_raises_when_its_result_is_read(monkeypatch):
    forks = _count_forks(monkeypatch)

    def second_refuses(a, b):
        if a == 1:
            raise ValueError(f"run {a}-{b} refused")
        return a

    with pytest.raises(ValueError, match="run 1-2 refused"):
        with _fanout.ordered_map(second_refuses, [0, 1, 2, 3], 2) as results:
            assert next(results) == 0
            next(results)
    assert len(forks) == 2


# A worker killed while it sends its result (by the OOM killer, say) leaves
# a header that promises more bytes than follow. The run below stages that:
# each worker writes such a header and ends. It runs in its own process
# because the failure it guards against is a hang.
_HALF_SENT_RESULT = """
import multiprocessing.connection, os, struct, time
from concurrent.futures import BrokenExecutor
from lrtc import _fanout

def half_sent(connection, buffer):
    os.write(connection.fileno(), struct.pack("!i", 1 << 20) + bytes(10))
    os._exit(1)

def run(a, b):
    multiprocessing.connection.Connection._send_bytes = half_sent
    return b

begun = time.monotonic()
try:
    with _fanout.ordered_map(run, [0, 1, 2], 2) as results:
        list(results)
except BrokenExecutor:
    print(time.monotonic() - begun)
"""


def test_a_worker_killed_while_it_sends_a_result_hangs_nothing():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(_fanout.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _HALF_SENT_RESULT],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
    )
    assert done.returncode == 0 and done.stdout, done.stderr
    assert float(done.stdout) < 5
