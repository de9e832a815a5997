"""The work bfchart runs on a second core, and when it does.

* ``threaded_map``: Phase I scores its discount factor candidates on
  threads, whose batched ``eigh`` releases the GIL (``workflow.phase1``).
* ``worker``: calibration draws its normal noise a buffer ahead on one
  worker thread, since numpy's ``Generator`` fills an array with the GIL
  released (``chart.calibrate_c``).

Each caller runs its work inline when the process may use one CPU only
(``usable_cpus``) or its input is small, where a thread costs more than it
saves.  Every thread ends before the call that started it returns or raises.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import os


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def worker(useful: bool):
    """One worker thread when it is ``useful`` and this process may use two
    CPUs, else None.

    On exit the work not yet started is dropped and the thread is joined.
    """
    if not useful or usable_cpus() < 2:
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def threaded_map(func, items, workers: int):
    """Yield func(item) for each item in order, computed on ``workers`` threads.

    At most ``workers`` calls run ahead of the consumer, so no more results
    are held than that.  Each call runs in a copy of the caller's context,
    where numpy 2 keeps ``np.errstate``.  The first call to fail in order
    raises its error, after the threads have stopped.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending = collections.deque()
        for item in items:
            pending.append(pool.submit(contextvars.copy_context().run, func, item))
            if len(pending) == workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
