"""Benchmark bfchart's three user paths -- fit, calibrate and monitor.

    python3 perfbench/run.py --workload fit-default --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each operation is an in-process
``bfchart.cli.main([...])`` call with its output captured, so the CLI's
CSV/JSON I/O is measured and interpreter start-up is not.  Workloads are
described in ``workloads.py``; the loop is closed: one client, one call at a
time, sessions repeated until ``--seconds`` have passed (at least one).

Set-up runs ``prepare.py`` three times in fresh processes (inputs drawn from
the seed, then tiny calls that pay lazy imports) and reports the median.
On a shared VM the CPU's speed drifts by up to 2x within minutes, so every
call's wall time is rescaled by a bfchart-free speed probe timed just
before and after it (see ``speed_probe``); raw times stay in the result
file.  Every output is checked by ``oracles.py`` outside the timed code; a
call that fails its oracle or exits with an unexpected code counts as
failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced sessions (at least one of each), prints the per-layer
metrics per traced session, reports the tracing overhead as traced minus
untraced session time, and writes the spans to
``.perfbench_work/trace-<workload>-seed<seed>.json``.  The last stdout line
is the JSON result; lines before it give the environment, samples and
per-layer breakdown.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads, at most the two cores the baselines were taken on
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import solve_triangular  # noqa: E402
from scipy.signal import lfilter  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import LAMBDA, PHI, TARGET_ARL  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "fit_s": "s",
    "calibrate_s": "s",
    "monitor_rows_per_s": "rows/s",
    "monitor_tracking_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: per-layer metric -> unit; values are per traced session
PER_LAYER = {
    "chart.calibrate_c.s": "s",
    "chart.calibrate_c.evaluations": "count",
    "chart.estimate_arl.calls": "count",
    "chart.replications": "count",
    "chart.run_length_chunk.calls": "count",
    "chart.simulated_steps": "count",
    "chart.censored": "count",
    "chart.noise_used_ratio": "ratio",
    "chart.ewma_path.s": "s",
    "chart.fit_ar1.s": "s",
    "dwr.run_filter.calls": "count",
    "dwr.run_filter.s": "s",
    "dwr.run_filter.rows": "count",
    "dwr.warmup.s": "s",
    "dwr.step.calls": "count",
    "dwr.step.s": "s",
    "diagnostics.fit_report.calls": "count",
    "diagnostics.fit_report.s": "s",
    "linalg.sym_inv_sqrt.calls": "count",
    "bayesfactor.lbf_path.s": "s",
    "bayesfactor.lbf_terms.calls": "count",
    "bayesfactor.lbf_terms.s": "s",
    "bayesfactor.lbf_series.s": "s",
    "workflow.phase1.self_s": "s",
    "workflow.phase2.self_s": "s",
    "cli.main.self_s": "s",
    "cli.read_data.s": "s",
    "cli.read_data.rows": "count",
    "cli.write_json.s": "s",
    "cli.report_bytes": "B",
    "cli.model_bytes": "B",
    "svg.render_chart_svg.s": "s",
    **{f"{layer}.errors": "count" for layer in spans.LAYERS},
    "trace.overhead_s": "s",
}


def environment(workload: str, seed: int, trace: int) -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def set_up(w: workloads.Workload, seed: int, work: str) -> tuple[list[float], bool]:
    """Run prepare.py in fresh processes; returns (seconds, inputs identical)."""
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", w.name,
             "--seed", str(seed), "--work-dir", work],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed ({proc.returncode}):\n"
                             f"{proc.stderr.strip()}")
        digests.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times, all(d == digests[0] for d in digests)


#: median speed_probe() seconds that timings are rescaled to
REFERENCE_PROBE_S = 0.12


def speed_probe() -> float:
    """Seconds for a fixed mix of the kinds of work bfchart does: a Python
    loop of small LAPACK, triangular-solve and outer-product calls, lfilter
    over 2048-value chunks, CSV float parsing and JSON encoding of a list of
    dicts.  It uses no bfchart code, so a change to the package cannot move
    it."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    spd = a @ a.T + 4.0 * np.eye(4)
    chol = np.linalg.cholesky(spd)
    x = rng.standard_normal(2048)
    lines = [",".join(repr(float(v)) for v in row)
             for row in rng.standard_normal((4000, 3))]
    start = perf_counter()
    acc = 0.0
    for _ in range(1200):
        w, u = np.linalg.eigh(spd)
        acc += float((u / np.sqrt(w)) @ u.T @ x[:4] @ x[4:8])
        acc += float(solve_triangular(chol, x[:4], lower=True, check_finite=False)[0])
        acc += float(np.outer(x[:4], x[4:8])[1, 2])
    for _ in range(60):
        acc += float(lfilter([0.05], [1.0, -0.95], x)[-1])
    for row in csv.reader(lines):
        acc += sum(float(cell) for cell in row)
    acc += len(json.dumps([{"t": t, "x": t * 0.5, "z": -t * 0.25} for t in range(15000)],
                          indent=2))
    return perf_counter() - start


class Runner:
    """Runs sessions of one workload and checks every output."""

    def __init__(self, w: workloads.Workload, work: str):
        self.w = w
        self.paths = workloads.Paths(work)
        self.samples: dict[str, list[float]] = {
            "fit": [], "calibrate": [], "monitor": [], "tracking": []}
        self.attempted = 0
        self.problems: list[str] = []
        self.model_sha: dict[int, str] = {}
        #: speed_probe() seconds before each call, and after the last one
        self.probes: list[float] = []
        #: per kind, call seconds times REFERENCE_PROBE_S over the mean of
        #: the probes just before and just after the call
        self.scaled: dict[str, list[float]] = {k: [] for k in self.samples}
        self._pending: list[tuple[str, float]] = []
        self._rows: dict[str, np.ndarray] = {}

    def _rows_of(self, path: str) -> np.ndarray:
        if path not in self._rows:
            self._rows[path] = np.loadtxt(path, delimiter=",", skiprows=1,
                                          ndmin=2)[:, 1:]
        return self._rows[path]

    def probe(self) -> None:
        """Time the speed probe and rescale the calls made since the last one."""
        self.probes.append(speed_probe())
        if len(self.probes) >= 2:
            speed = 0.5 * (self.probes[-2] + self.probes[-1])
            for kind, took in self._pending:
                self.scaled[kind].append(took * REFERENCE_PROBE_S / speed)
        self._pending = []

    def _call(self, argv: list[str], kind: str, tracer) -> tuple[float, int, str]:
        self.probe()
        gc.collect()
        scope = tracer.op(kind) if tracer is not None else contextlib.nullcontext()
        with scope:
            start = perf_counter()
            code, out = workloads.run_quiet(argv)
            took = perf_counter() - start
        self.attempted += 1
        return took, code, out

    def session(self, tracer=None) -> tuple[float, list]:
        """One pass over the workload's calls; returns (timed seconds, checks).

        Each fit is followed by the workload's frozen monitor calls and one
        tracking call against the first fit's model, and the calibrate calls
        are spread between the fits, so the short samples of each kind are
        spread over the session rather than taken back to back.  Every
        monitor call writes its own report, checked after the session."""
        w, p = self.w, self.paths
        model = p.model(w.fit_sets[0])
        calibrate = ("calibrate", None, ["calibrate", "--lambda", str(LAMBDA),
                                         "--phi", str(PHI), "--reps", str(w.calibrate_reps)])
        calls = []
        for i, k in enumerate(w.fit_sets):
            calls.append(("fit", k, ["fit", p.fit_data(k), "--out", p.model(k),
                                     "--estimate-target", "--reps", str(w.fit_reps)]))
            for j in range(i * w.frozen_calls, (i + 1) * w.frozen_calls):
                report, plot = p.report(j), p.plot(j)
                calls.append(("monitor", (report, plot),
                              ["monitor", p.monitor_data, "--model", model,
                               "--out", report, "--plot", plot]))
                if j == i * w.frozen_calls:
                    tracked = p.tracking_report(i)
                    calls.append(("tracking", (tracked,),
                                  ["monitor", p.tracking_data, "--model", model,
                                   "--tracking", "--out", tracked]))
            n = len(w.fit_sets)
            calls += [calibrate] * ((i + 1) * w.calibrate_calls // n
                                    - i * w.calibrate_calls // n)
        checks, total = [], 0.0
        for kind, extra, argv in calls:
            took, code, out = self._call(argv, kind, tracer)
            total += took
            self.samples[kind].append(took)
            self._pending.append((kind, took))
            if kind == "fit":
                extra = (extra, workloads.sha256(p.model(extra)) if code == 0 else None)
            checks.append((kind, code, out, extra))
        return total, checks

    def check(self, checks: list) -> None:
        """Apply the oracles to one session's outputs (not timed)."""
        p = self.paths
        model = None
        for kind, code, out, extra in checks:
            found = []
            if kind == "fit":
                k, sha = extra
                if code != 0:
                    found.append(f"exit code {code}")
                else:
                    first = self.model_sha.setdefault(k, sha)
                    if sha != first:
                        found.append(f"model-{k}.json differs between repeats")
                    with open(p.model(k), encoding="utf-8") as fh:
                        found += oracles.check_fit(json.load(fh))
            elif kind == "calibrate":
                found += ([f"exit code {code}"] if code != 0
                          else oracles.check_calibrate(out, TARGET_ARL))
            else:
                if model is None:
                    with open(p.model(self.w.fit_sets[0]), encoding="utf-8") as fh:
                        model = json.load(fh)
                found += self._check_monitor(kind, code, model, extra)
            if found:
                self.problems.append(f"{kind}: " + "; ".join(found))

    def _check_monitor(self, kind: str, code: int, model: dict, files) -> list[str]:
        if code not in (0, 10):
            return [f"exit code {code}"]
        data = self.paths.monitor_data if kind == "monitor" else self.paths.tracking_data
        with open(files[0], encoding="utf-8") as fh:
            report = json.load(fh)
        rows = self._rows_of(data)
        found = oracles.check_chart(model, report, code)
        if kind == "monitor":
            found += oracles.check_frozen(model, rows, report)
            with open(files[1], encoding="utf-8") as fh:
                if fh.read(4) != "<svg":
                    found.append("plot is not an SVG document")
        else:
            found += oracles.check_tracking(model, rows, report)
        return found


def loop(runner: Runner, seconds: float, tracer=None,
         on_first=None) -> list[float]:
    """Closed loop of sessions for ``seconds`` (at least one); session times."""
    deadline = perf_counter() + seconds
    times = []
    while not times or perf_counter() < deadline:
        took, checks = runner.session(tracer)
        times.append(took)
        if on_first is not None and len(times) == 1:
            on_first()
        runner.check(checks)
    runner.probe()
    return times


def alternate(runner: Runner, seconds: float,
              tracer: spans.Tracer) -> tuple[list[float], list[float]]:
    """Untraced and traced sessions in turn for ``seconds`` (at least one
    of each); returns both lists of session times."""
    deadline = perf_counter() + seconds
    untraced, traced = [], []
    while not traced or perf_counter() < deadline:
        if len(untraced) > len(traced):
            with spans.hooks(tracer):
                took, checks = runner.session(tracer)
            traced.append(took)
        else:
            took, checks = runner.session()
            untraced.append(took)
        runner.check(checks)
    runner.probe()
    return untraced, traced


def end_to_end(runner: Runner, setup_s: float, peak_kib: int) -> dict:
    """Medians of the wall-clock samples, each rescaled to the probe speed
    measured just before and after it."""
    w, s = runner.w, runner.scaled
    values = {
        "fit_s": statistics.median(s["fit"]),
        "calibrate_s": statistics.median(s["calibrate"]),
        "monitor_rows_per_s": w.monitor_rows / statistics.median(s["monitor"]),
        "monitor_tracking_rows_per_s":
            w.tracking_rows / statistics.median(s["tracking"]),
        "peak_rss_mb": peak_kib / 1024.0,
        "setup_s": setup_s,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer(tracer: spans.Tracer, sessions: int, overhead_s: float) -> dict:
    c = tracer.counters
    selfs = tracer.summary()["self_s"]
    values = {name: c[name] / sessions for name in PER_LAYER}
    for name in ("workflow.phase1", "workflow.phase2", "cli.main"):
        values[name + ".self_s"] = selfs.get(name, 0.0) / sessions
    drawn = c["chart.noise_drawn"]
    values["chart.noise_used_ratio"] = c["chart.simulated_steps"] / drawn if drawn else 0.0
    values["trace.overhead_s"] = overhead_s
    return {k: {"value": float(values[k]), "unit": PER_LAYER[k]} for k in PER_LAYER}


def dominance(tracer: spans.Tracer) -> dict:
    """Shares of each op kind's time taken by the layers said to dominate it."""
    ops = tracer.summary()["ops"]
    out = {}
    if "fit" in ops:
        fit = ops["fit"]
        layers = fit["self_s_per_op_by_layer"]
        out["fit: chart.calibrate_c inclusive share"] = (
            tracer.mean_inclusive("chart.calibrate_c", "fit") / fit["mean_s"])
        out["fit: dwr+diagnostics+linalg+bayesfactor self share"] = sum(
            layers.get(name, 0.0)
            for name in ("dwr", "diagnostics", "linalg", "bayesfactor")) / fit["mean_s"]
    if "monitor" in ops:
        mon = ops["monitor"]
        layers = mon["self_s_per_op_by_layer"]
        out["monitor: bayesfactor+cli+workflow self share"] = sum(
            layers.get(name, 0.0)
            for name in ("bayesfactor", "cli", "workflow")) / mon["mean_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bfchart benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    workloads.load_bfchart(ROOT)
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment(w.name, args.seed, args.trace)
    print("perfbench env: " + json.dumps(env, sort_keys=True))
    runner = Runner(w, work)
    speed_probe()  # first call pays one-off costs; not recorded
    runner.probe()
    setup_times, inputs_same = set_up(w, args.seed, work)
    runner.probe()
    setup_scaled = [t * REFERENCE_PROBE_S / (0.5 * sum(runner.probes))
                    for t in setup_times]
    start = perf_counter()
    problems = workloads.warm_up(runner.paths)
    warmup_s = perf_counter() - start
    runner.problems += problems
    if not inputs_same:
        runner.problems.append("set-up drew different inputs from the same seed")

    peak = []
    def first_peak():
        peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    result = {"env": env, "setup_s": setup_times, "main_warmup_s": warmup_s}
    if args.trace == 0:
        sessions = loop(runner, args.seconds, on_first=first_peak)
        metrics = end_to_end(runner, statistics.median(setup_scaled), peak[0])
    else:
        tracer = spans.Tracer(tag)
        untraced, sessions = alternate(runner, args.seconds, tracer)
        overhead = statistics.median(sessions) - statistics.median(untraced)
        metrics = per_layer(tracer, len(sessions), overhead)
        result["untraced_sessions_s"] = untraced
        result["dominance"] = dominance(tracer)
        result["per_op"] = tracer.summary()["ops"]
        trace_doc = tracer.to_dict()
        trace_doc["env"] = env
        with open(os.path.join(WORK, f"trace-{w.name}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(trace_doc, fh)
        print("perfbench dominance: " + json.dumps(result["dominance"], sort_keys=True))
        print("perfbench per-op: " + json.dumps(result["per_op"], sort_keys=True))
    result.update(sessions_s=sessions, samples=runner.samples, scaled=runner.scaled,
                  probe_s=runner.probes, problems=runner.problems, metrics=metrics)
    with open(os.path.join(WORK, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"perfbench problem: {problem}", file=sys.stderr)
    print("perfbench samples: " + json.dumps(
        {"setup_s": setup_times, "main_warmup_s": warmup_s, "sessions_s": sessions,
         "probe_s": runner.probes, **runner.samples}, sort_keys=True))
    failed = len(runner.problems)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
