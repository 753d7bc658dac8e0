"""The one place where lrtc starts processes: the fork rule and an ordered map.

A large load or save runs its jobs in forked worker processes on every core
the process may use (``workers``), and ``ordered_map`` runs them there or in
the calling process through one call. A worker gets the function it runs
through the fork, so nothing is pickled but the bounds of each job and its
result, and the function may close over large arrays.

Forking a process that has other threads is unsafe (a lock another thread
holds stays held in the child), so ``workers`` gives a job more than one
worker only while no other Python thread is alive.
"""

import contextlib
import os
import sys
import threading

# Below this many values a job runs in the calling process: pool start-up and
# teardown (about 10 ms) cost as much as formatting 10k values.
MIN_VALUES = 2**17
# The function a forked worker runs, inherited from the map that started it.
_fn = None


def workers(values, most):
    """How many forked worker processes a job of ``values`` values, cut into
    at most ``most`` runs, runs on; below 2 it runs in the calling process.

    A job of at least ``MIN_VALUES`` values, on Linux, while no other Python
    thread is alive, gets ``min(usable cores, most)`` workers.
    """
    if values >= MIN_VALUES and sys.platform.startswith("linux") and threading.active_count() == 1:
        return min(len(os.sched_getaffinity(0)), most)
    return 1


def _inherit(fn):
    global _fn
    _fn = fn


def _call(a, b):
    return _fn(a, b)


@contextlib.contextmanager
def ordered_map(fn, bounds, workers):
    """An iterator over ``fn(a, b)`` for each consecutive pair ``a, b`` of
    ``bounds``, in order.

    With ``workers`` of 2 or more and at least two runs, the calls run in
    ``min(workers, runs)`` forked processes that live until the block ends;
    otherwise they run lazily in this process, one at a time. A call that
    raises re-raises when its result is read; a worker that dies raises
    ``BrokenExecutor``.

    When the block raises (a call's error, a dead worker, an interrupt), the
    pool's workers are terminated before the error goes on, so no run still
    in progress is waited for. Results are read in order, so an error in a
    later run is seen only after every run before it has finished.
    """
    runs = len(bounds) - 1
    if workers < 2 or runs < 2:
        yield map(fn, bounds[:-1], bounds[1:])
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the pool's workers are the only processes started while it lives, as
    # callers fork only while no other thread is alive (see ``workers``)
    before = set(multiprocessing.active_children())
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        min(workers, runs), mp_context=fork, initializer=_inherit, initargs=(fn,)
    ) as pool:
        try:
            yield pool.map(_call, bounds[:-1], bounds[1:])
        except BaseException:
            for child in set(multiprocessing.active_children()) - before:
                child.terminate()
            # A worker killed while it sends a result leaves half a message in
            # the result pipe, and the pool's reader thread waits for the rest
            # until every writer is closed; this process holds the last one.
            pool._result_queue._writer.close()
            raise
