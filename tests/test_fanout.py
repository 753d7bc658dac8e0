import concurrent.futures
import os
import subprocess
import sys

import numpy as np
import pytest

from lrtc import _fanout


def _spy_on_pools(monkeypatch):
    """The worker count of every process pool started from now on."""
    started = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers, **kwargs):
        started.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return started


@pytest.mark.parametrize("runs", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_order(monkeypatch, workers, runs):
    started = _spy_on_pools(monkeypatch)
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
    # one pool of no more workers than runs, and none for one worker or one run
    assert started == ([min(workers, runs)] if forked else [])


def test_in_process_calls_run_lazily_one_at_a_time():
    calls = []
    with _fanout.ordered_map(lambda a, b: calls.append((a, b)) or b, [0, 2, 5, 9], 1) as results:
        assert calls == []
        assert next(results) == 2 and calls == [(0, 2)]
        assert list(results) == [5, 9]
    assert calls == [(0, 2), (2, 5), (5, 9)]


def test_a_call_that_raises_re_raises_when_its_result_is_read(monkeypatch):
    started = _spy_on_pools(monkeypatch)

    def second_refuses(a, b):
        if a == 1:
            raise ValueError(f"run {a}-{b} refused")
        return a

    with pytest.raises(ValueError, match="run 1-2 refused"):
        with _fanout.ordered_map(second_refuses, [0, 1, 2, 3], 2) as results:
            assert next(results) == 0
            next(results)
    assert started == [2]


# A worker killed while it sends its result leaves a header that promises
# more bytes than follow. The run below stages that: the second worker writes
# such a header into the pool's result pipe once the parent has read the
# first run's error, and the parent terminates the workers only after that.
# It runs in its own process because the failure it guards against is a hang.
_HALF_SENT_RESULT = """
import multiprocessing, multiprocessing.queues, os, struct, sys, time
from lrtc import _fanout

seen, sent = sys.argv[1], sys.argv[2]

def wait_for(path):
    deadline = time.monotonic() + 20
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)

def half_sent(queue, item):
    os.write(queue._writer.fileno(), struct.pack("!i", 1 << 20) + bytes(10))
    open(sent, "w").close()
    time.sleep(60)

def run(a, b):
    if a == 0:
        raise ValueError("first run refused")
    wait_for(seen)
    multiprocessing.queues.SimpleQueue.put = half_sent
    return b

real, calls = multiprocessing.active_children, []

def children():
    calls.append(None)
    if len(calls) == 2:
        # the parent has the first run's error and is about to end the workers
        open(seen, "w").close()
        wait_for(sent)
    return real()

multiprocessing.active_children = children
try:
    with _fanout.ordered_map(run, [0, 1, 2], 2) as results:
        list(results)
except ValueError as exc:
    print(exc)
"""


def test_a_worker_killed_while_it_sends_a_result_hangs_nothing(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(_fanout.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _HALF_SENT_RESULT, str(tmp_path / "seen"), str(tmp_path / "sent")],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
    )
    assert (done.returncode, done.stdout) == (0, "first run refused\n"), done.stderr
