"""The thread helpers bfchart runs work on a second core with, ``pool`` and
``ahead``, and the layers that use them."""

import ast
import json
import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import bfchart
from bfchart import _rows, _threads, cli
from bfchart.linalg import make_rng


@pytest.fixture(params=[1, 2], ids=["inline", "worker"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(_threads, "usable_cpus", lambda: request.param)
    return request.param


class TestPrefetched:
    """``ahead`` on ``pool(1)``: each result is made on one thread while the
    one before is used, or inline when the process may use one CPU."""

    def test_yields_in_order_at_most_two_ahead(self, cpus):
        started, ahead = [], []

        def call(item):
            started.append(item)
            return item * item

        got = []
        with _threads.pool(1) as pool:
            for value in _threads.ahead(call, range(20), pool):
                ahead.append(len(started) - len(got))
                got.append(value)
        assert got == [i * i for i in range(20)]
        assert max(ahead) <= (2 if cpus > 1 else 1)

    @pytest.mark.parametrize("useful", [False, True])
    def test_runs_on_the_worker_only_when_useful(self, cpus, useful):
        threads = set()

        def call(item):
            threads.add(threading.current_thread())
            return item

        before = threading.enumerate()
        with _threads.pool(1 if useful else 0) as pool:
            assert (pool is None) == (cpus == 1 or not useful)
            assert list(_threads.ahead(call, range(5), pool)) == list(range(5))
        assert threading.enumerate() == before
        assert (threading.main_thread() in threads) == (cpus == 1 or not useful)

    def test_first_error_after_the_thread_stopped(self, cpus):
        def call(item):
            if item >= 3:
                raise ValueError(f"item {item} failed")
            return item

        got = []
        before = threading.enumerate()
        with pytest.raises(ValueError, match="item 3 failed"):
            with _threads.pool(1) as pool:
                got.extend(_threads.ahead(call, range(10), pool))
        assert got == [0, 1, 2]
        assert threading.enumerate() == before

    def test_closing_drops_the_rest(self, cpus):
        started = []
        before = threading.enumerate()
        with _threads.pool(1) as pool:
            values = _threads.ahead(started.append, range(100), pool)
            next(values)
            values.close()
        assert threading.enumerate() == before
        assert len(started) <= (2 if cpus > 1 else 1)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_holds_at_most_two_or_one_per_thread_ahead(monkeypatch, threads):
    # every submitted call counts, started or not, until its result is taken;
    # one thread needs two CPUs to run at all
    monkeypatch.setattr(_threads, "usable_cpus", lambda: max(2, threads))
    submitted, ahead, got = [], [], []
    with _threads.pool(threads) as pool:
        submit = pool.submit
        pool.submit = lambda func, item: submitted.append(item) or submit(func, item)
        for value in _threads.ahead(abs, range(-20, 0), pool):
            ahead.append(len(submitted) - len(got))
            got.append(value)
    assert got == list(range(20, 0, -1))
    assert max(ahead) == max(2, threads)


def test_starts_at_most_one_thread_per_cpu(monkeypatch):
    monkeypatch.setattr(_threads, "usable_cpus", lambda: 2)
    before = threading.active_count()
    with _threads.pool(3) as pool:
        assert len(pool._threads) == 2
        assert threading.active_count() == before + 2
        assert list(_threads.ahead(abs, range(-5, 0), pool)) == [5, 4, 3, 2, 1]
    assert threading.active_count() == before


def test_the_first_call_starts_before_a_result_is_asked_for(monkeypatch):
    monkeypatch.setattr(_threads, "usable_cpus", lambda: 2)
    started = threading.Event()

    def call(item):
        started.set()
        return item

    with _threads.pool(1) as pool:
        values = _threads.ahead(call, range(3), pool)
        assert started.wait(10)
        assert list(values) == [0, 1, 2]


def test_worker_drops_the_work_not_started(monkeypatch):
    # the first call is still running when the block exits; it finishes,
    # and the others have not started and must not start
    monkeypatch.setattr(_threads, "usable_cpus", lambda: 2)
    started, finished = [], []

    def call(item):
        started.append(item)
        time.sleep(0.2)
        finished.append(item)

    before = threading.enumerate()
    with _threads.pool(1) as pool:
        for item in range(5):
            pool.submit(call, item)
        while not started:
            time.sleep(0.001)
    assert threading.enumerate() == before
    assert started == finished == [0]


def test_a_fresh_process_never_imports_concurrent_futures(tmp_path):
    # a threaded calibration with two CPUs whatever the host has, and a
    # three-chunk write_data and monitor call, whose text is made inline
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from bfchart import _rows, _threads, chart, cli
        from bfchart.linalg import make_rng

        _threads.usable_cpus = lambda: 2
        root = sys.argv[1]
        chart.calibrate_c(0.05, 0.1, 370.4, reps=512, seed=0)
        rng = make_rng(3)
        cli.write_data(root + "/fit.csv", rng.standard_normal((200, 2)))
        cli.write_data(root + "/new.csv", rng.standard_normal((2 * _rows.CHUNK_ROWS + 1, 2)))
        assert cli.main(["fit", root + "/fit.csv", "--out", root + "/model.json",
                         "--estimate-target", "--delta-grid", "0.9", "--reps", "200"]) == 0
        assert cli.main(["monitor", root + "/new.csv", "--model", root + "/model.json",
                         "--out", root + "/report.json"]) in (0, 10)
        print("concurrent.futures" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(bfchart.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("call", ["format_rows", "write_data", "monitor"])
def test_per_row_text_starts_no_thread(monkeypatch, tmp_path, call):
    # three chunks with two usable CPUs: the threads alive are checked at
    # each cells call and inside each reference call
    x = make_rng(5).standard_normal((2 * _rows.CHUNK_ROWS + 1, 2))
    # a power-of-two significand, which the kernel leaves to the reference
    x[::1000, 0] = 0.5
    if call == "format_rows":
        column = np.where(x[:, 0] == 0.5, np.nan, x[:, 0])
        run = lambda: "".join(_rows.format_rows(["", "\n"], "", (column,), json.dumps))
    elif call == "write_data":
        run = lambda: cli.write_data(str(tmp_path / "new.csv"), x)
    else:
        cli.write_data(str(tmp_path / "fit.csv"), make_rng(3).standard_normal((200, 2)))
        cli.write_data(str(tmp_path / "new.csv"), x)
        assert cli.main(["fit", str(tmp_path / "fit.csv"), "--out", str(tmp_path / "model.json"),
                         "--estimate-target", "--delta-grid", "0.9", "--reps", "200"]) == 0
        run = lambda: cli.main(["monitor", str(tmp_path / "new.csv"), "--model",
                                str(tmp_path / "model.json"), "--out",
                                str(tmp_path / "report.json")])

    monkeypatch.setattr(_threads, "usable_cpus", lambda: 2)
    before = threading.enumerate()
    seen = []
    cells = _rows.cells

    def watched(values, reference):
        def watched_reference(v):
            seen.append((threading.current_thread(), threading.enumerate()))
            return reference(v)

        seen.append((threading.current_thread(), threading.enumerate()))
        return cells(values, watched_reference)

    monkeypatch.setattr(_rows, "cells", watched)
    result = run()
    if call == "monitor":
        assert result in (0, 10)
    assert len(seen) >= 3
    assert all(thread is threading.main_thread() for thread, _ in seen)
    assert all(alive == before for _, alive in seen)
    assert threading.enumerate() == before


def test_only_phase1_and_calibration_import_threads():
    package = os.path.dirname(bfchart.__file__)
    users = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                (node.module or "").endswith("_threads")
                or any(alias.name == "_threads" for alias in node.names)
            ):
                users.add(name[:-3])
    assert users == {"chart", "workflow"}
    assert not hasattr(_rows, "_threads")
