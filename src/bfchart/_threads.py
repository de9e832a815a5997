"""The work bfchart runs on a second core, and when it does.

* ``threaded_map``: Phase I scores its discount factor candidates on
  threads, whose batched ``eigh`` releases the GIL (``workflow.phase1``).
* ``worker``: calibration draws its normal noise a buffer ahead on one
  worker thread, since numpy's ``Generator`` fills an array with the GIL
  released (``chart.calibrate_c``).
* ``prefetched``: the text kernel makes the cells of each chunk of a long
  per-row output on one worker thread while the calling thread joins the
  chunk before into text; both run numpy operations on whole chunks, which
  release the GIL (``_rows.format_rows``).

Each caller runs its work inline when the process may use one CPU only
(``usable_cpus``) or its input is small, where a thread costs more than it
saves.  Every thread ends before the call that started it returns or raises.
The threads are plain ``threading`` threads fed through ``queue.SimpleQueue``,
which imports in about 1 ms; ``concurrent.futures`` takes 6 to 10 ms, which
a fresh process would pay on its first threaded call.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import os
import queue
import threading


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _Pending(queue.SimpleQueue):
    """The result of one submitted call: a thread puts (value, error) once."""

    def result(self):
        """Wait for the call and return its value, or raise its error."""
        value, error = self.get()
        if error is not None:
            raise error
        return value


class _Pool:
    """``workers`` threads that make submitted calls in order of submission,
    each in a copy of the submitter's context, where numpy 2 keeps
    ``np.errstate``."""

    def __init__(self, workers: int):
        self._tasks = queue.SimpleQueue()
        self._stopped = False
        self._threads = [threading.Thread(target=self._run) for _ in range(workers)]
        for thread in self._threads:
            thread.start()

    def submit(self, func, *args, **kwargs) -> _Pending:
        pending = _Pending()
        self._tasks.put((pending, contextvars.copy_context(), func, args, kwargs))
        return pending

    def _run(self) -> None:
        while (task := self._tasks.get()) is not None:
            if not self._stopped:
                _call(*task)
            # hold no call's arguments while waiting for the next
            del task

    def shutdown(self) -> None:
        """Drop the calls not yet started and join the threads."""
        self._stopped = True
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join()


def _call(pending: _Pending, context, func, args, kwargs) -> None:
    try:
        pending.put((context.run(func, *args, **kwargs), None))
    except BaseException as error:  # raised again by pending.result()
        pending.put((None, error))


@contextlib.contextmanager
def worker(useful: bool):
    """One worker thread when it is ``useful`` and this process may use two
    CPUs, else None.  ``submit(func, *args, **kwargs)`` returns an object
    whose ``result()`` waits for the call's value.

    On exit the work not yet started is dropped and the thread is joined.
    """
    if not useful or usable_cpus() < 2:
        yield None
        return
    pool = _Pool(1)
    try:
        yield pool
    finally:
        pool.shutdown()


def prefetched(func, items, useful: bool):
    """Yield func(item) for each item in order.  When it is ``useful`` and
    this process may use two CPUs, the calls are made on one worker thread,
    each while the consumer uses the result before; at most two run ahead
    of the consumer.  The first call to fail raises its error, after the
    thread has stopped.
    """
    with worker(useful) as pool:
        yield from map(func, items) if pool is None else _in_order(pool, func, items, 2)


def threaded_map(func, items, workers: int):
    """Yield func(item) for each item in order, computed on ``workers`` threads.

    At most ``workers`` calls run ahead of the consumer, so no more results
    are held than that.  Each call runs in a copy of the caller's context,
    where numpy 2 keeps ``np.errstate``.  The first call to fail in order
    raises its error, after the threads have stopped.
    """
    pool = _Pool(workers)
    try:
        yield from _in_order(pool, func, items, workers)
    finally:
        pool.shutdown()


def _in_order(pool: _Pool, func, items, ahead: int):
    """func(item) for each item in order, made on the pool with at most
    ``ahead`` calls submitted and not yet consumed."""
    pending = collections.deque()
    for item in items:
        pending.append(pool.submit(func, item))
        if len(pending) == ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()
