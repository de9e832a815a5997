"""The work bfchart runs on a second core, and when it does.

``ahead(func, items, pool)`` yields func(item) in order, made on the
threads of a ``pool`` while the caller uses the result before:

* Phase I scores its discount factor candidates, one thread each up to the
  CPUs; their batched ``eigh`` releases the GIL (``workflow.phase1``).
* Calibration draws its normal noise a buffer ahead on one thread;
  numpy's ``Generator`` fills an array with the GIL released
  (``chart.calibrate_c``).
* The text kernel makes each chunk's cells on one thread while the caller
  joins the chunk before into text (``_rows.format_rows``).

A caller asks for no thread where its input is small and a thread costs
more than it saves; ``pool`` starts at most one per usable CPU
(``usable_cpus``) and none where the process may use one, and ``ahead``
then calls inline.  Every thread ends before its ``pool`` block is left.
The threads are plain ``threading`` threads fed through
``queue.SimpleQueue``, which imports in about 1 ms; ``concurrent.futures``
takes 6 to 10 ms, which a fresh process would pay on its first threaded
call.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import itertools
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
    """``threads`` threads that make submitted calls in order of submission,
    each in a copy of the submitter's context, where numpy 2 keeps
    ``np.errstate``."""

    def __init__(self, threads: int):
        self._tasks = queue.SimpleQueue()
        self._stopped = False
        self._threads = [threading.Thread(target=self._run) for _ in range(threads)]
        for thread in self._threads:
            thread.start()

    def submit(self, func, item) -> _Pending:
        pending = _Pending()
        self._tasks.put((pending, contextvars.copy_context(), func, item))
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


def _call(pending: _Pending, context, func, item) -> None:
    try:
        pending.put((context.run(func, item), None))
    except BaseException as error:  # raised again by pending.result()
        pending.put((None, error))


@contextlib.contextmanager
def pool(threads: int):
    """A pool of min(``threads``, usable CPUs) threads for ``ahead``, or None
    when ``threads`` is below 1 or this process may use one CPU.

    The second CPU is chosen from the affinity mask alone, however busy it
    is: with another process holding the second vCPU of a two-vCPU host,
    calibration's noise thread made it 16 to 18% slower than drawing inline.
    On exit the calls not yet started are dropped and the threads joined.
    """
    cpus = usable_cpus()
    if threads < 1 or cpus < 2:
        yield None
        return
    workers = _Pool(min(threads, cpus))
    try:
        yield workers
    finally:
        workers.shutdown()


def ahead(func, items, pool: _Pool | None):
    """A generator of func(item) for each item, in order, with the items
    drawn on the caller's thread.

    Without a pool the calls are made inline.  On one, the first call is
    submitted at once and the rest as results are taken, with at most
    max(2, threads) calls submitted and not yet taken, so each call runs
    while the caller uses the result before.  A failed call raises its
    error when its result is taken; leaving the pool block drops the rest.
    """
    if pool is None:
        return (func(item) for item in items)
    items = iter(items)
    bound = max(2, len(pool._threads))
    calls = collections.deque(pool.submit(func, item) for item in itertools.islice(items, 1))

    def results():
        for item in items:
            calls.append(pool.submit(func, item))
            if len(calls) == bound:
                yield calls.popleft().result()
        while calls:
            yield calls.popleft().result()

    return results()
