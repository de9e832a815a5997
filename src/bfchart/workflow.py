"""Two-phase monitoring workflow.

Phase I fits the discount filter over a grid of discount factors on
historical data, selects the discount whose MSSE is closest to 1, fits an
AR(1) to the resulting log-Bayes-factor series, and calibrates the EWMA
limit multiplier by Monte Carlo to a target in-control ARL.  Phase II
scores new observations against the frozen Phase I components (posterior
mean, covariance estimate, and the steady-state scale limit) and runs the
modified EWMA chart over the centered statistic.

The fitted AR(1) stationary mean is removed from the statistic before
charting, so the chart center is 0 unless ``recenter`` additionally pins
the center to the realized Phase I EWMA mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _accel, bayesfactor, dwr
from .bayesfactor import TargetSpec
from .chart import (
    Ar1Model,
    ChartConfig,
    asymptotic_sigma_z2,
    calibrate_c,
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
from .linalg import as_spd, cholesky

SCHEMA_VERSION = 1

#: default discount factor grid searched in Phase I
DELTA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: minimum Phase I length; below this AR(1) fitting and the positive
#: definiteness of the covariance estimate are unreliable
MIN_PHASE1 = 30

#: consecutive same-side EWMA points that trigger a concentration warning
RUN_WARNING = 8


def _require_finite(y: np.ndarray) -> None:
    """Reject NaN or infinite observations, naming the first one (0-based)."""
    bad = np.argwhere(~np.isfinite(y))
    if bad.size:
        row, col = bad[0]
        raise InvalidConfig(f"non-finite value {y[row, col]} at row {row}, column {col}")


def difference(data) -> np.ndarray:
    """First-order difference along time; output is one row shorter."""
    y = np.asarray(data, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] < 2:
        raise TooShort(f"need at least 2 observations to difference, got {y.shape[0]}")
    return np.diff(y, axis=0)


def estimate_target(data) -> TargetSpec:
    """Sample mean and covariance (divisor n-1) as the target density."""
    y = np.asarray(data, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
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
    recenter: bool
    difference: bool
    n_phase1: int
    warmup: int
    grid: tuple[GridEntry, ...]
    phase1_z: np.ndarray = field(default_factory=lambda: np.empty(0))

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
        scalars = (self.delta, self.ar.intercept, self.ar.phi, self.ar.sigma2,
                   self.chart.lam, self.chart.c, self.chart.mu_z, self.chart.sigma_z)
        arrays = (self.m_opt, self.s_opt, self.target.mu, self.phase1_z)
        if not (all(math.isfinite(v) for v in scalars)
                and all(np.all(np.isfinite(a)) for a in arrays)):
            raise SchemaMismatch("model has non-finite values")
        if not 0.0 < self.delta <= 1.0:
            raise SchemaMismatch(f"discount factor {self.delta} is not in (0, 1]")
        if not any(g.delta == self.delta for g in self.grid):
            raise SchemaMismatch(f"the grid has no entry at delta {self.delta}")
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
        p = self.m_opt.shape[0]
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "bfchart-model",
            "delta": self.delta,
            "p_star": self.p_star,
            "lbf_offset": self.lbf_offset,
            "recenter": self.recenter,
            "difference": self.difference,
            "n_phase1": self.n_phase1,
            "warmup": self.warmup,
            "prior_scale": dwr.DEFAULT_PRIOR_SCALE,
            "m_opt": self.m_opt.tolist(),
            "s_opt": {"dim": p, "data": self.s_opt.reshape(-1).tolist()},
            "target": {
                "mu": self.target.mu.tolist(),
                "v": {"dim": p, "data": self.target.V.reshape(-1).tolist()},
            },
            "ar": {
                "intercept": self.ar.intercept,
                "phi": self.ar.phi,
                "sigma2": self.ar.sigma2,
            },
            "chart": {
                "lam": self.chart.lam,
                "c": self.chart.c,
                "mu_z": self.chart.mu_z,
                "sigma_z": self.chart.sigma_z,
            },
            "fit": _report_dict(self.fit),
            "grid": [
                {"delta": g.delta, **_report_dict(g.report)} for g in self.grid
            ],
            "phase1_z": self.phase1_z.tolist(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "FittedModel":
        if not isinstance(doc, dict) or doc.get("kind") != "bfchart-model":
            raise SchemaMismatch("not a bfchart model document")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise SchemaMismatch(
                f"unsupported schema version {doc.get('schema_version')!r}"
            )
        try:
            target = target_from_dict(doc["target"])
            ar = Ar1Model(**doc["ar"])
            chart = ChartConfig(**doc["chart"])
            model = FittedModel(
                delta=float(doc["delta"]),
                m_opt=np.array(doc["m_opt"], dtype=float),
                s_opt=_mat_from(doc["s_opt"]),
                target=target,
                ar=ar,
                chart=chart,
                recenter=_json_value(doc, "recenter", bool),
                difference=_json_value(doc, "difference", bool),
                n_phase1=_json_value(doc, "n_phase1", int),
                warmup=_json_value(doc, "warmup", int),
                grid=tuple(
                    GridEntry(float(g["delta"]), _report_from(g)) for g in doc["grid"]
                ),
                phase1_z=np.array(doc["phase1_z"], dtype=float),
            )
            prior_scale = float(doc["prior_scale"])
            p_star = float(doc["p_star"])
            lbf_offset = float(doc["lbf_offset"])
            fit = _report_dict(_report_from(doc["fit"]))
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
            ("chart.mu_z", model.chart.mu_z,
             float(model.phase1_z.mean()) if model.recenter else 0.0),
        ):
            if not math.isclose(value, want, rel_tol=1e-12):
                raise SchemaMismatch(f"{name} {value!r} is not the {want!r} "
                                     "that Phase I derives for this model")
        if fit != _report_dict(model.fit):
            raise SchemaMismatch(f"fit is not the grid entry at delta {model.delta}")
        return model


def target_from_dict(doc: dict) -> TargetSpec:
    """The target of a ``{"mu": [...], "v": {"dim": p, "data": [...]}}`` document."""
    return TargetSpec(mu=np.array(doc["mu"], dtype=float), V=_mat_from(doc["v"]))


def _json_value(doc: dict, key: str, kind: type):
    """doc[key], which must be of type ``kind`` exactly: a bool is no int here."""
    if type(doc[key]) is not kind:
        raise SchemaMismatch(f"{key} must be a JSON {kind.__name__}, got {doc[key]!r}")
    return doc[key]


def _report_dict(report: FitReport) -> dict:
    return {
        "msse": report.msse.tolist(),
        "mae": report.mae.tolist(),
        "mape": [None if math.isnan(v) else v for v in report.mape],
        "n": report.n,
    }


def _report_from(doc: dict) -> FitReport:
    return FitReport(
        msse=np.array(doc["msse"], dtype=float),
        mae=np.array(doc["mae"], dtype=float),
        mape=np.array(
            [math.nan if v is None else float(v) for v in doc["mape"]], dtype=float
        ),
        n=int(doc["n"]),
    )


def _mat_from(doc: dict) -> np.ndarray:
    dim = _json_value(doc, "dim", int)
    data = np.array(doc["data"], dtype=float)
    if data.size != dim * dim:
        raise SchemaMismatch(f"matrix payload of size {data.size} is not {dim}x{dim}")
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
    recenter: bool = False,
    apply_difference: bool = False,
    calib_reps: int = 10**4,
) -> FittedModel:
    """Fit, diagnose and calibrate on historical data; returns the frozen model.

    For each discount factor candidate the filter is run over the data and
    the candidate minimizing the mean |MSSE - 1| across coordinates wins.
    """
    y = np.asarray(data, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    _require_finite(y)
    if apply_difference:
        y = difference(y)
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
    if apply_difference:
        # a differenced series is monitored for its dispersion only
        target = TargetSpec(mu=np.zeros(p), V=target.V)

    candidates = []
    for delta in deltas:
        config = DwrConfig(dim=p, delta=float(delta))
        path = run_filter(config, y)
        w = path.warmup
        if w is None or n - w < 10:
            continue
        # the first scored points right after S turns positive definite are
        # numerically wild; give the estimate a short settling period
        w = max(w, 10)
        scale = config.delta + path.p_pre[w:, None, None]
        covs = scale * path.s_pre[w:] / config.delta
        report = fit_report(path.errors[w:], covs, y[w:])
        candidates.append((report.msse_score, float(delta), path, w, report))
    if not candidates:
        raise DegenerateFit(
            "no discount factor candidate produced a positive definite "
            "covariance estimate"
        )
    _, delta_opt, path, warmup, _ = min(candidates, key=lambda c: (c[0], c[1]))

    lbf_vals = _accel.lbf_path(y, path, target, warmup)
    ar = fit_ar1(lbf_vals)
    statistic = lbf_vals - ar.mean

    calib = calibrate_c(lam, ar.phi, target_arl, reps=calib_reps, seed=seed)
    phase1_z = _accel.ewma_path(np.ascontiguousarray(statistic), lam, 0.0)
    center = float(phase1_z.mean()) if recenter else 0.0
    chart = design_chart(ar, lam, calib.c, center=center)

    return FittedModel(
        delta=delta_opt,
        m_opt=path.final.m,
        s_opt=as_spd(path.final.S),
        target=target,
        ar=ar,
        chart=chart,
        recenter=recenter,
        difference=apply_difference,
        n_phase1=n,
        warmup=warmup,
        grid=tuple(
            GridEntry(d, r) for _, d, _, _, r in sorted(candidates, key=lambda c: c[1])
        ),
        phase1_z=phase1_z,
    )


def phase2(model: FittedModel, data, tracking: bool = False) -> MonitorResult:
    """Monitor new data against the frozen Phase I model.

    In the default frozen mode the statistic for each y depends only on the
    stored components, so observations are scored independently; the only
    sequential state is the EWMA.  With ``tracking`` the posterior mean and
    covariance estimate keep updating as new data arrive.  A row too extreme
    to give a finite log Bayes factor raises NonFiniteScore naming it.
    """
    y = np.asarray(data, dtype=float)
    if y.size == 0:
        return _chart_result(model, np.empty(0))
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[1] != model.target.dim:
        raise DimensionMismatch(
            f"data dim {y.shape[1]} does not match model dim {model.target.dim}"
        )
    _require_finite(y)
    if model.difference:
        y = difference(y)

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
                row = err.t - model.n_phase1 - 1 + int(model.difference)
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
        raise NonFiniteScore(
            f"log Bayes factor is not finite at row {bad[0] + int(model.difference)}"
        )
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
