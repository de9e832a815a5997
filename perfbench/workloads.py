"""Workload definitions and their seeded inputs.

Every workload runs the same kind of closed-loop session of CLI calls, one
at a time in one process: for each of its fit data sets, ``fit`` followed
by frozen ``monitor`` call(s) and one ``monitor --tracking`` call against
the model fitted on the first data set, with the ``calibrate`` calls spread
between the fits.  The workloads differ in sizes and settings, so each one
is dominated by a different layer:

* ``fit-default``: Phase I on 500x2 in-control rows with the default delta
  grid, lambda and ARL, and ``calibrate --lambda 0.05 --phi 0.1``.  Monte
  Carlo calibration (``chart``) dominates.  The fits use ``--reps 1000`` on
  five data sets plus a repeat of the first: at the default ``--reps
  10000`` one fit takes 7 to 18 s depending on its data, because the
  bisection needs 5 to 11 evaluations, so a single fit per run cannot give a
  steady median.  For the same reason ``calibrate`` runs three times per
  session at ``--reps 2500`` rather than once at 10000 (about 10 s); it
  takes no data, so its work is the same on every seed.
* ``fit-long``: Phase I at ``--reps 200`` on 5000x4 local-level rows.  The
  per-step loops in ``dwr``, ``diagnostics`` and ``bayesfactor`` dominate;
  calibration is small.  It also varies p, which sets the per-step cost.
* ``monitor``: Phase II on 1e5 in-control rows frozen (with report and SVG)
  and 2e4 rows with ``--tracking``; per-row LBF scoring, filter steps and
  the CSV/JSON I/O of ``cli`` dominate.  A session makes three frozen
  calls: with one or two, the ten-run spread of ``monitor_rows_per_s`` was
  22%, because the CPU's speed changes within one 7 s call.

Inputs come only from the benchmark seed through ``bfchart.simulate``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

#: target ARL and EWMA weight passed to fit and calibrate (the CLI defaults)
TARGET_ARL = 370.4
LAMBDA = 0.05
PHI = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: fit data: "iid" in-control rows or a 4-dim "local-level" path
    kind: str
    dim: int
    fit_rows: int
    #: index of each fit's data set; a repeated index checks determinism
    fit_sets: tuple[int, ...]
    fit_reps: int
    #: replications of the standalone calibrate calls
    calibrate_reps: int
    #: calibrate calls per session, spread evenly between the fit sets
    calibrate_calls: int
    monitor_rows: int
    tracking_rows: int
    #: frozen monitor calls after each fit (one tracking call follows the first)
    frozen_calls: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-default",
            why="fit on 500x2 rows at the default grid, lambda and ARL, and "
                "calibrate; Monte Carlo calibration in chart dominates",
            kind="iid", dim=2, fit_rows=500, fit_sets=(0, 1, 2, 3, 4, 0),
            fit_reps=1000, calibrate_reps=2500, calibrate_calls=3, monitor_rows=2500,
            tracking_rows=1000,
        ),
        Workload(
            name="fit-long",
            why="fit on 5000x4 local-level rows at 200 reps; the per-step "
                "filter, diagnostics and LBF loops dominate, calibration is small",
            kind="local-level", dim=4, fit_rows=5000, fit_sets=(0,),
            fit_reps=200, calibrate_reps=1000, calibrate_calls=1, monitor_rows=5000,
            tracking_rows=2000,
        ),
        Workload(
            name="monitor",
            why="monitor 1e5 rows frozen with report and SVG, and 2e4 rows "
                "tracking; per-row LBF scoring and CSV/JSON I/O dominate",
            kind="iid", dim=2, fit_rows=500, fit_sets=(0,),
            fit_reps=200, calibrate_reps=1000, calibrate_calls=1, monitor_rows=100_000,
            tracking_rows=20_000, frozen_calls=3,
        ),
    )
}

#: rows of the tiny warm-up inputs that pay lazy imports during set-up
WARMUP_ROWS = 60


class Paths:
    """Input and output files of one workload run inside the work directory."""

    def __init__(self, root: str):
        self.root = root

    def fit_data(self, k: int) -> str:
        return os.path.join(self.root, f"fit-{k}.csv")

    def model(self, k: int) -> str:
        return os.path.join(self.root, f"model-{k}.json")

    @property
    def monitor_data(self) -> str:
        return os.path.join(self.root, "monitor.csv")

    @property
    def tracking_data(self) -> str:
        return os.path.join(self.root, "tracking.csv")

    def report(self, i: int) -> str:
        return os.path.join(self.root, f"report-{i}.json")

    def tracking_report(self, i: int) -> str:
        return os.path.join(self.root, f"tracking-report-{i}.json")

    def plot(self, i: int) -> str:
        return os.path.join(self.root, f"chart-{i}.svg")

    def warm(self, name: str) -> str:
        return os.path.join(self.root, f"warmup-{name}")

    def inputs(self, w: Workload) -> list[str]:
        return ([self.fit_data(k) for k in sorted(set(w.fit_sets))]
                + [self.monitor_data, self.tracking_data, self.warm("data.csv")])


def generate_inputs(w: Workload, seed: int, paths: Paths) -> None:
    """Write every input CSV of the workload, drawn from ``seed``."""
    from bfchart import cli, simulate
    from bfchart.dwr import DwrConfig
    from bfchart.linalg import make_rng

    in_control = simulate.reference_scenarios()["in_control"]
    sets = sorted(set(w.fit_sets))
    if w.kind == "iid":
        for k in sets:
            rows = simulate.gen_iid(in_control, w.fit_rows, make_rng(seed, k))
            cli.write_data(paths.fit_data(k), rows)
        monitor = simulate.gen_iid(in_control, w.monitor_rows, make_rng(seed, 100))
        tracking = simulate.gen_iid(in_control, w.tracking_rows, make_rng(seed, 101))
    else:
        # one local-level path per data set; monitoring continues the first
        config = DwrConfig(dim=w.dim, delta=0.9)
        for k in sets:
            extra = w.monitor_rows + w.tracking_rows if k == sets[0] else 0
            path = simulate.gen_local_level(config, np.eye(w.dim),
                                            w.fit_rows + extra, make_rng(seed, k))
            cli.write_data(paths.fit_data(k), path[:w.fit_rows])
            if extra:
                monitor = path[w.fit_rows:w.fit_rows + w.monitor_rows]
                tracking = path[w.fit_rows + w.monitor_rows:]
    cli.write_data(paths.monitor_data, monitor)
    cli.write_data(paths.tracking_data, tracking)
    warm = simulate.gen_iid(in_control, WARMUP_ROWS, make_rng(seed, 200))
    cli.write_data(paths.warm("data.csv"), warm)


def warmup_argvs(paths: Paths) -> list[tuple[list[str], tuple[int, ...]]]:
    """Tiny calls of every op kind with their accepted exit codes.

    A low target ARL keeps the calibration's censoring cap, and so the cost
    of its bracketing runs, small."""
    data, model = paths.warm("data.csv"), paths.warm("model.json")
    return [
        (["fit", data, "--out", model, "--estimate-target", "--reps", "20",
          "--arl", "20", "--delta-grid", "0.9"], (0,)),
        (["calibrate", "--lambda", str(LAMBDA), "--phi", str(PHI),
          "--reps", "20", "--arl", "20"], (0,)),
        (["monitor", data, "--model", model, "--out", paths.warm("report.json"),
          "--plot", paths.warm("chart.svg")], (0, 10)),
        (["monitor", data, "--model", model, "--tracking",
          "--out", paths.warm("tracking.json")], (0, 10)),
    ]


def load_bfchart(root: str):
    """Import bfchart from the checkout's ``src``, never from site-packages."""
    import sys

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "bfchart", "__init__.py")):
        raise SystemExit(f"perfbench: no bfchart sources under {src}")
    sys.path.insert(0, src)
    import bfchart

    if os.path.dirname(os.path.dirname(os.path.realpath(bfchart.__file__))) != src:
        raise SystemExit(f"perfbench: bfchart imported from {bfchart.__file__}, "
                         f"not from {src}")
    return bfchart


def warm_up(paths: Paths) -> list[str]:
    """Run the tiny calls; returns one problem per unexpected exit code."""
    problems = []
    for argv, codes in warmup_argvs(paths):
        code, _ = run_quiet(argv)
        if code not in codes:
            problems.append(f"warm-up {argv[0]} exited {code}")
    return problems


def run_quiet(argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in process with stdout and stderr captured.

    A traceback is a failed call (exit code -1, traceback in the output),
    not a crash of the benchmark."""
    import contextlib
    import io
    import traceback

    from bfchart import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 2
        except Exception:
            code = -1
            out.write(traceback.format_exc())
    return code, out.getvalue()


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
