"""The one place where lrtc starts processes: the fork rule and an ordered map.

A large load or save runs its jobs in forked worker processes on every core
the process may use (``workers``), and ``ordered_map`` runs them there or in
the calling process through one call. A worker gets the function it runs
through the fork, so nothing is pickled but each job's result, and the
function may close over large arrays. Each worker sends its results down a
pipe of its own, whose only write end it holds, so a worker that dies, even
in the middle of a send, ends that pipe and is seen at once.

Forking a process that has other threads is unsafe (a lock another thread
holds stays held in the child), so ``workers`` gives a job more than one
worker only while no other Python thread is alive.
"""

import contextlib
import os
import sys
import threading
from concurrent.futures import BrokenExecutor

# Below this many values a job runs in the calling process: starting and
# ending the workers (about 10 ms) costs as much as formatting 10k values.
MIN_VALUES = 2**17
# What a dead worker raises.
_DIED = "a worker process ended before it sent its result"


def workers(values, most):
    """How many forked worker processes a job of ``values`` values, cut into
    at most ``most`` runs, runs on; below 2 it runs in the calling process.

    A job of at least ``MIN_VALUES`` values, on Linux, while no other Python
    thread is alive, gets ``min(usable cores, most)`` workers.
    """
    if values >= MIN_VALUES and sys.platform.startswith("linux") and threading.active_count() == 1:
        return min(len(os.sched_getaffinity(0)), most)
    return 1


def _serve(fn, starts, stops, pipe):
    """A worker's life: send ``(False, fn(a, b))`` down ``pipe`` for each
    pair in order, or ``(True, error)`` for the first call that raises.

    It ends with ``os._exit`` once it has sent its last message, so no exit
    handler of the caller runs in it, and a send that fails (an error that
    cannot be pickled, say) ends it too.
    """
    try:
        for a, b in zip(starts, stops):
            pipe.send((False, fn(a, b)))
    except BaseException as exc:
        pipe.send((True, exc))
    finally:
        os._exit(0)


def _result(pipe):
    """The next result a worker sent down ``pipe``; its error re-raises, and
    its death, before or while it sent, raises ``BrokenExecutor``."""
    try:
        raised, value = pipe.recv()
    except (EOFError, OSError):
        raise BrokenExecutor(_DIED) from None
    if raised:
        raise value
    return value


@contextlib.contextmanager
def ordered_map(fn, bounds, workers):
    """An iterator over ``fn(a, b)`` for each consecutive pair ``a, b`` of
    ``bounds``, in order.

    With ``workers`` of 2 or more and at least two runs, the calls run in
    ``n = min(workers, runs)`` forked processes: worker ``k`` makes calls
    ``k, k + n, ...`` and sends each result as it is made. Otherwise the
    calls run lazily in this process, one at a time. A call that raises
    re-raises when its result is read, and the worker that made it makes no
    more; a worker that dies before or while it sends a result raises
    ``BrokenExecutor`` when that result is read.

    When the block ends, for any reason, the workers are killed and reaped,
    so no run still in progress is waited for. Results are read in order, so
    an error in a later run is seen only after every run before it is read.
    """
    runs = len(bounds) - 1
    if workers < 2 or runs < 2:
        yield map(fn, bounds[:-1], bounds[1:])
        return
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    n = min(workers, runs)
    started = []
    try:
        for k in range(n):
            pipe, end = fork.Pipe(duplex=False)
            child = fork.Process(target=_serve, args=(fn, bounds[k:-1:n], bounds[k + 1 :: n], end))
            child.start()
            # the worker holds the only write end, so its death ends the pipe
            end.close()
            started.append((child, pipe))
        yield (_result(started[i % n][1]) for i in range(runs))
    finally:
        for child, pipe in started:
            child.kill()
            child.join()
            pipe.close()
