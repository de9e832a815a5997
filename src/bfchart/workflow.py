"""Two-phase monitoring workflow.

Phase I fits the discount filter over a grid of discount factors on
historical data, selects the discount whose MSSE is closest to 1, fits an
AR(1) to the resulting log-Bayes-factor series, and calibrates the EWMA
limit multiplier by Monte Carlo to a target in-control ARL.  Phase II
scores new observations against the frozen Phase I components (posterior
mean, covariance estimate, and the steady-state scale limit) and runs the
modified EWMA chart over the centered statistic.

The fitted AR(1) stationary mean is removed from the statistic before
charting, so the chart center is 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _accel, _threads, bayesfactor, dwr
from .bayesfactor import TargetSpec
from .chart import (
    Ar1Model,
    ChartConfig,
    asymptotic_sigma_z2,
    calibrate_c,
    check_chart_settings,
    design_chart,
    fit_ar1,
    run_chart,
)
from .diagnostics import FitReport, fit_report
from .dwr import DwrConfig, FilterState, run_filter, steady_state_scale
from .exceptions import (
    BfchartError,
    CovarianceNotReady,
    DegenerateFit,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteScore,
    NotPositiveDefinite,
    SchemaMismatch,
    TooShort,
)
from .linalg import as_rows, as_spd, cholesky, make_rng

SCHEMA_VERSION = 2

#: default discount factor grid searched in Phase I
DELTA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: minimum Phase I length; below this AR(1) fitting and the positive
#: definiteness of the covariance estimate are unreliable
MIN_PHASE1 = 30

#: consecutive same-side EWMA points that trigger a concentration warning
RUN_WARNING = 8

#: input size n * p * p from which Phase I scores its discount factor
#: candidates on threads.  It was set where overlapping LAPACK's batched eigh
#: began to save more than the threads' contention for the GIL costs
#: (BENCH_grid_threads.json).  At p = 3 and 4, whose eigenpairs now come from
#: the numpy Jacobi kernel, the threads no longer pay: they took 1.02-1.13 of
#: inline (ROADMAP item 15, BENCH_jacobi_whitening.json)
_THREADED_GRID_ENTRIES = 16000


def estimate_target(data) -> TargetSpec:
    """Sample mean and covariance (divisor n-1) of ``as_rows(data)`` as the target."""
    y = as_rows(data)
    n, p = y.shape
    if n < p + 2:
        raise TooShort(f"need at least dim + 2 = {p + 2} observations, got {n}")
    cov = np.cov(y, rowvar=False, ddof=1).reshape(p, p)
    return TargetSpec(mu=y.mean(axis=0), V=cov)


@dataclass(frozen=True)
class GridEntry:
    """Fit diagnostics for one discount factor candidate."""

    delta: float
    report: FitReport


@dataclass(frozen=True)
class FittedModel:
    """Frozen Phase I components sufficient to monitor new data; the arrays
    are read-only copies."""

    delta: float
    m_opt: np.ndarray
    s_opt: np.ndarray
    target: TargetSpec
    ar: Ar1Model
    chart: ChartConfig
    n_phase1: int
    warmup: int
    grid: tuple[GridEntry, ...]
    phase1_z: np.ndarray

    def __post_init__(self):
        """Reject inconsistent components with SchemaMismatch.

        The scoring kernels broadcast, so a mean or covariance of the wrong
        shape would otherwise give silently wrong statistics.
        """
        for name in ("m_opt", "s_opt", "phase1_z"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        p = self.target.dim
        if np.shape(self.m_opt) != (p,) or np.shape(self.s_opt) != (p, p):
            raise SchemaMismatch(
                f"m_opt of shape {np.shape(self.m_opt)} and s_opt of shape "
                f"{np.shape(self.s_opt)} do not match target dim {p}"
            )
        # Ar1Model, ChartConfig, TargetSpec and delta's range refuse the rest
        if not all(np.isfinite(a).all() for a in (self.m_opt, self.s_opt, self.phase1_z)):
            raise SchemaMismatch("model has non-finite values")
        if not 0.0 < self.delta <= 1.0:
            raise SchemaMismatch(f"discount factor {self.delta} is not in (0, 1]")
        deltas = [g.delta for g in self.grid]
        for i, delta in enumerate(deltas):
            if delta in deltas[:i]:
                raise SchemaMismatch(f"the grid repeats delta {delta}")
        if self.delta not in deltas:
            raise SchemaMismatch(f"the grid has no entry at delta {self.delta}")
        for entry in self.grid:
            report = entry.report
            for name in ("msse", "mae", "mape"):
                values = getattr(report, name)
                if values.shape != (p,):
                    raise SchemaMismatch(f"the grid entry at delta {entry.delta} has "
                                         f"{name} of shape {values.shape}, not ({p},)")
            if report.n < 1:
                raise SchemaMismatch(f"the grid entry at delta {entry.delta} has "
                                     f"n {report.n}, not >= 1")
        if self.n_phase1 < 1:
            raise SchemaMismatch(f"n_phase1 must be >= 1, got {self.n_phase1}")
        try:
            # tracking resumes from the running sum s_opt * n_phase1
            with np.errstate(over="ignore"):
                cholesky(self.s_opt * self.n_phase1)
        except NotPositiveDefinite as err:
            raise SchemaMismatch(f"s_opt * n_phase1 is not positive definite: {err}") from None

    @property
    def p_star(self) -> float:
        """The steady-state filter scale at ``delta``, which Phase II scores with."""
        return steady_state_scale(self.delta)

    @property
    def lbf_offset(self) -> float:
        """The AR(1) stationary mean, taken off the LBF before charting."""
        return self.ar.mean

    @property
    def fit(self) -> FitReport:
        """The diagnostics of the selected discount factor: its grid entry."""
        return next(g.report for g in self.grid if g.delta == self.delta)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "bfchart-model",
            "delta": self.delta,
            "p_star": self.p_star,
            "lbf_offset": self.lbf_offset,
            "n_phase1": self.n_phase1,
            "warmup": self.warmup,
            "prior_scale": dwr.DEFAULT_PRIOR_SCALE,
            "m_opt": self.m_opt.tolist(),
            "s_opt": _mat_doc(self.s_opt),
            "target": target_to_dict(self.target),
            "ar": asdict(self.ar),
            "chart": asdict(self.chart),
            "fit": _report_dict(self.fit),
            "grid": [
                {"delta": g.delta, **_report_dict(g.report)} for g in self.grid
            ],
            # ``fit`` writes this value with the equal text of cli._Rows
            "phase1_z": self.phase1_z.tolist(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "FittedModel":
        if not isinstance(doc, dict) or doc.get("kind") != "bfchart-model":
            raise SchemaMismatch("not a bfchart model document")
        version = doc.get("schema_version")
        if version is None or _json_value(doc, "schema_version", int) != SCHEMA_VERSION:
            raise SchemaMismatch(f"unsupported schema version {version!r}")
        try:
            model = FittedModel(
                delta=_json_value(doc, "delta", float),
                m_opt=_json_value(doc, "m_opt", list),
                s_opt=_mat_from(_json_value(doc, "s_opt", dict), "s_opt."),
                target=target_from_dict(_json_value(doc, "target", dict), "target."),
                ar=Ar1Model(**_numbers(_json_value(doc, "ar", dict), "ar.")),
                chart=ChartConfig(**_numbers(_json_value(doc, "chart", dict), "chart.")),
                n_phase1=_json_value(doc, "n_phase1", int),
                warmup=_json_value(doc, "warmup", int),
                grid=tuple(GridEntry(_json_value(g, "delta", float, at=f"grid[{i}]."),
                                     _report_from(g, f"grid[{i}]."))
                           for i, g in enumerate(_json_value(doc, "grid", list[dict]))),
                phase1_z=_json_value(doc, "phase1_z", list),
            )
            prior_scale, p_star, lbf_offset = (
                _json_value(doc, key, float) for key in ("prior_scale", "p_star", "lbf_offset"))
            fit = _report_dict(_report_from(_json_value(doc, "fit", dict), "fit."))
        except (KeyError, TypeError, ValueError, OverflowError, BfchartError) as err:
            raise SchemaMismatch(f"malformed model document: {err}") from err
        # derived values are checked at load only: a model built in code may
        # move its center on purpose
        warmup, n = model.warmup, model.n_phase1
        if not 0 <= warmup < n or model.phase1_z.shape != (n - warmup,):
            raise SchemaMismatch(f"need 0 <= warmup < n_phase1 and n_phase1 - warmup "
                                 f"phase1_z values, got warmup {warmup}, n_phase1 {n} "
                                 f"and {model.phase1_z.size} values")
        for name, value, want in (
            ("prior_scale", prior_scale, dwr.DEFAULT_PRIOR_SCALE),
            ("p_star", p_star, model.p_star),
            ("lbf_offset", lbf_offset, model.lbf_offset),
            ("chart.sigma_z", model.chart.sigma_z,
             math.sqrt(asymptotic_sigma_z2(model.chart.lam, model.ar))),
            ("chart.mu_z", model.chart.mu_z, 0.0),
        ):
            if not math.isclose(value, want, rel_tol=1e-12):
                raise SchemaMismatch(f"{name} {value!r} is not the {want!r} "
                                     "that Phase I derives for this model")
        if fit != _report_dict(model.fit):
            raise SchemaMismatch(f"fit is not the grid entry at delta {model.delta}")
        return model


def target_from_dict(doc: dict, at: str = "") -> TargetSpec:
    """The target of a ``{"mu": [...], "v": {"dim": p, "data": [...]}}``
    document, which sits at key path ``at`` of a larger one."""
    return TargetSpec(mu=_json_value(doc, "mu", list, at=at),
                      V=_mat_from(_json_value(doc, "v", dict, at=at), at + "v."))


def target_to_dict(target: TargetSpec) -> dict:
    """The document ``target_from_dict`` reads ``target`` from."""
    return {"mu": target.mu.tolist(), "v": _mat_doc(target.V)}


def _json_value(doc: dict, key: str, kind: type, nulls: bool = False, at: str = ""):
    """doc[key] read as ``kind``; otherwise SchemaMismatch naming the key's
    full path, ``at + key``, where ``at`` is the path of ``doc`` in its
    document (``grid[2].``, ``target.v.``), and KeyError naming it when the
    key is missing.

    ``float`` takes a number, a JSON int or float but never a bool or a
    string, and returns a float.  ``int`` takes a JSON integer.
    ``list`` takes a flat list of numbers and returns a float array; with
    ``nulls`` a ``null`` entry of the list is read as NaN.  ``dict`` takes
    an object, and ``list[dict]`` a list of objects, whose entries it names
    ``at + key + [i]``; both return the value.
    """
    name = at + key
    try:
        value = doc[key]
    except KeyError:
        raise KeyError(name) from None
    numbers = {int, float, type(None)} if nulls else {int, float}
    if kind is list and type(value) is list:
        wrong = set(map(type, value)) - numbers
        if not wrong:
            return np.array(value, dtype=float)
        value = next(v for v in value if type(v) in wrong)
        raise SchemaMismatch(f"{name} must be a list of numbers, not hold {value!r}")
    if kind == list[dict] and type(value) is list:
        for i, entry in enumerate(value):
            if type(entry) is not dict:
                raise SchemaMismatch(f"{name}[{i}] must be a JSON object, got {entry!r}")
        return value
    if type(value) in (numbers if kind is float else {kind}):
        return float(value) if kind is float else value
    wanted = {float: "number", list: "list of numbers", dict: "object",
              list[dict]: "list of objects"}.get(kind, kind.__name__)
    raise SchemaMismatch(f"{name} must be a JSON {wanted}, got {value!r}")


def _numbers(doc: dict, at: str) -> dict:
    """Each value of the object at key path ``at``, read as a number."""
    return {key: _json_value(doc, key, float, at=at) for key in doc}


def _report_dict(report: FitReport) -> dict:
    return {
        "msse": report.msse.tolist(),
        "mae": report.mae.tolist(),
        "mape": [None if math.isnan(v) else v for v in report.mape.tolist()],
        "n": report.n,
    }


def _report_from(doc: dict, at: str) -> FitReport:
    vectors = (_json_value(doc, key, list, nulls=key == "mape", at=at)
               for key in ("msse", "mae", "mape"))
    return FitReport(*vectors, n=_json_value(doc, "n", int, at=at))


def _mat_doc(a: np.ndarray) -> dict:
    """The document ``_mat_from`` reads a square matrix from."""
    return {"dim": a.shape[0], "data": a.reshape(-1).tolist()}


def _mat_from(doc: dict, at: str) -> np.ndarray:
    dim = _json_value(doc, "dim", int, at=at)
    data = _json_value(doc, "data", list, at=at)
    if dim < 1:
        raise SchemaMismatch(f"matrix {at}dim must be >= 1, got {dim}")
    if data.size != dim * dim:
        raise SchemaMismatch(f"matrix {at}data of size {data.size} is not {dim}x{dim}")
    return data.reshape(dim, dim)


@dataclass(frozen=True)
class MonitorResult:
    """Chart output for one monitored stream: per-row arrays, x = lbf - lbf_offset."""

    lbf: np.ndarray
    x: np.ndarray
    z: np.ndarray
    out_of_control: np.ndarray
    warnings: tuple[str, ...]

    @property
    def signals(self) -> tuple[int, ...]:
        """The indices of the out-of-control points."""
        return tuple(np.flatnonzero(self.out_of_control).tolist())


def phase1(
    data,
    *,
    target: TargetSpec | None = None,
    deltas=DELTA_GRID,
    lam: float = 0.05,
    target_arl: float = 370.4,
    seed: int = 0,
    calib_reps: int = 10**4,
) -> FittedModel:
    """Fit, diagnose and calibrate on historical data; returns the frozen model.

    ``data`` is read by ``linalg.as_rows``.  For each discount factor
    candidate the filter is run over the data and the candidate minimizing
    the mean |MSSE - 1| across coordinates wins.  An empty grid, a candidate
    outside (0, 1] or a repeated one raises InvalidConfig before any is
    filtered, and so does a chart setting that ``calibrate_c`` refuses.
    From ``_THREADED_GRID_ENTRIES`` values of n * p * p the
    candidates are scored on up to min(CPUs, candidates) threads; the model
    does not depend on the thread count.
    """
    # calibration's seed rule, applied before any work
    make_rng(seed)
    deltas = tuple(map(dwr._check_delta, deltas))
    if not deltas:
        raise InvalidConfig("the discount factor grid is empty")
    for i, delta in enumerate(deltas):
        if delta in deltas[:i]:
            raise InvalidConfig(f"discount factor {delta} is repeated in the grid")
    check_chart_settings(lam, target_arl, calib_reps)
    y = as_rows(data)
    n, p = y.shape
    if n < MIN_PHASE1:
        raise TooShort(f"Phase I needs at least {MIN_PHASE1} observations, got {n}")
    flat = np.flatnonzero(np.ptp(y, axis=0) == 0)
    if flat.size:
        col = int(flat[0])
        raise DegenerateFit(f"column {col} is constant: every value is {y[0, col]}")
    if target is None:
        try:
            with np.errstate(over="ignore"):
                target = estimate_target(y)
        except NotPositiveDefinite as err:
            raise DegenerateFit(f"estimated target covariance: {err}") from None
    if target.dim != p:
        raise DimensionMismatch(
            f"target dim {target.dim} does not match data dim {p}"
        )

    def score(delta):
        """The grid entry, filter path and warm-up of one candidate; None when
        its covariance estimate does not turn positive definite in time."""
        path = run_filter(DwrConfig(dim=p, delta=delta), y)
        w = path.warmup
        if w is None or n - w < 10:
            return None
        # the first scored points right after S turns positive definite
        # are numerically wild; give the estimate a short settling period
        w = max(w, 10)
        scale = delta + path.p_pre[w:, None, None]
        report = fit_report(path.errors[w:], scale * path.s_pre[w:] / delta, y[w:])
        return GridEntry(delta, report), path, w

    # one thread per candidate, up to the CPUs; one candidate runs inline
    threads = 0
    if n * p * p >= _THREADED_GRID_ENTRIES and len(deltas) > 1:
        threads = len(deltas)
    # every candidate's report is kept, and only the best path so far
    grid, best = [], None
    with _threads.pool(threads) as pool:
        for scored in _threads.ahead(score, deltas, pool):
            if scored is not None:
                entry, path, w = scored
                grid.append(entry)
                key = (entry.report.msse_score, entry.delta)
                if best is None or key < best[0]:
                    best = key, path, w
                del path
            # drop this candidate's path before the next one is scored
            del scored
    if best is None:
        raise DegenerateFit(
            "no discount factor candidate produced a positive definite "
            "covariance estimate"
        )
    (_, delta_opt), path, warmup = best

    with np.errstate(over="ignore", invalid="ignore"):
        lbf_vals = _accel.lbf_path(y, path, target, warmup)
        # the AR(1) fit sums the squares of the series, and its residuals'
        # sum of squares is at most that
        squares = np.cumsum(np.square(lbf_vals))
    bad = np.flatnonzero(~np.isfinite(squares))
    if bad.size:
        i = int(bad[0])
        # a row of the input, as phase2 names it
        row = warmup + i
        if not math.isfinite(lbf_vals[i]):
            raise DegenerateFit(f"log Bayes factor of row {row} is not finite under the target")
        raise DegenerateFit(
            f"log Bayes factor of row {row} is {lbf_vals[i]:.6g} under the target, "
            "too large to fit the AR(1) of the Phase I statistic"
        )
    ar = fit_ar1(lbf_vals)
    statistic = lbf_vals - ar.mean

    calib = calibrate_c(lam, ar.phi, target_arl, reps=calib_reps, seed=seed)
    phase1_z = _accel.ewma_path(np.ascontiguousarray(statistic), lam, 0.0)
    chart = design_chart(ar, lam, calib.c)

    return FittedModel(
        delta=delta_opt,
        m_opt=path.final.m,
        s_opt=as_spd(path.final.S),
        target=target,
        ar=ar,
        chart=chart,
        n_phase1=n,
        warmup=warmup,
        grid=tuple(sorted(grid, key=lambda entry: entry.delta)),
        phase1_z=phase1_z,
    )


def phase2(model: FittedModel, data, tracking: bool = False) -> MonitorResult:
    """Monitor new data against the frozen Phase I model.

    In the default frozen mode the statistic for each y depends only on the
    stored components, so observations are scored independently; the only
    sequential state is the EWMA.  With ``tracking`` the posterior mean and
    covariance estimate keep updating as new data arrive.  A row too extreme
    to give a finite log Bayes factor raises NonFiniteScore naming it.
    Other than empty, ``data`` is read by ``linalg.as_rows`` at the model's dim.
    """
    y = np.asarray(data, dtype=float)
    if y.size == 0:
        return _chart_result(model, np.empty(0))
    y = as_rows(y, model.target.dim)

    # a row too extreme to score is refused below; numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        if tracking:
            state = FilterState(
                delta=model.delta,
                t=model.n_phase1,
                m=model.m_opt.copy(),
                P=model.p_star,
                sum_outer=model.s_opt * model.n_phase1,
            )
            try:
                lbf_vals = bayesfactor.lbf_series(y, state, model.target)
            except CovarianceNotReady as err:
                # S starts positive definite and only gains outer products, so
                # it fails only once the previous row has overflowed it
                row = err.t - model.n_phase1 - 1
                raise NonFiniteScore(
                    f"row {row} overflows the innovation covariance estimate, "
                    "so no log Bayes factor from there on is finite"
                ) from None
        else:
            lbf_vals = bayesfactor.lbf_terms(
                y, model.m_opt, model.p_star, model.s_opt, model.delta, model.target
            )
    bad = np.flatnonzero(~np.isfinite(lbf_vals))
    if bad.size:
        # a NaN would leave every later EWMA value NaN and never signal
        raise NonFiniteScore(f"log Bayes factor is not finite at row {bad[0]}")
    return _chart_result(model, lbf_vals)


def _chart_result(model: FittedModel, lbf_vals: np.ndarray) -> MonitorResult:
    x = lbf_vals - model.lbf_offset
    z, out_of_control = run_chart(x, model.chart)
    return MonitorResult(
        lbf=lbf_vals,
        x=x,
        z=z,
        out_of_control=out_of_control,
        warnings=tuple(_run_warnings(z, model.chart.mu_z)),
    )


def _run_warnings(z: np.ndarray, center: float) -> list[str]:
    """Maximal runs of >= RUN_WARNING consecutive points on one side of center."""
    side = np.r_[np.sign(z - center), 0.0]  # the trailing 0 closes the last run
    starts = np.flatnonzero(np.r_[True, side[1:] != side[:-1]])
    ends = np.r_[starts[1:], side.size]
    keep = (ends - starts >= RUN_WARNING) & (side[starts] != 0)
    return [
        f"{end - start} consecutive EWMA values "
        f"{'above' if side[start] > 0 else 'below'} center from t={start} to t={end - 1}"
        for start, end in zip(starts[keep].tolist(), ends[keep].tolist())
    ]
