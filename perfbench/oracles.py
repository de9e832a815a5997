"""Output oracles for the benchmark's operations.

Each check takes the parsed outputs of one CLI call and returns a list of
problems (empty when the output is right).  They run outside the timed code
and recompute every quantity independently of the package: scipy densities
for the frozen log Bayes factor, a plain-numpy filter step for tracking, and
the EWMA and limit arithmetic by hand.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.stats import multivariate_normal

#: relative and absolute tolerance for recomputed floating point values
RTOL, ATOL = 1e-8, 1e-8

#: leading rows of a tracking report re-derived with the plain filter step
TRACKING_ROWS = 32

#: allowed relative distance of a calibrated ARL from its target
ARL_TOLERANCE = 0.05


def _matrix(doc: dict) -> np.ndarray:
    dim = int(doc["dim"])
    return np.asarray(doc["data"], dtype=float).reshape(dim, dim)


def _mismatch(name: str, got, want) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != expected {want.shape}"]
    bad = ~np.isclose(got, want, rtol=RTOL, atol=ATOL)
    if bad.any():
        k = int(np.argmax(bad))
        return [f"{name}: {int(bad.sum())} value(s) differ, first at {k}: "
                f"{got.flat[k]!r} != {want.flat[k]!r}"]
    return []


def ewma_sigma_z(lam: float, phi: float, sigma2: float) -> float:
    """Closed-form asymptotic EWMA standard deviation under AR(1) input."""
    damp = phi * (1.0 - lam)
    var = sigma2 * lam * (1.0 + damp) / ((1.0 - phi * phi) * (2.0 - lam) * (1.0 - damp))
    return math.sqrt(var)


def check_fit(model: dict) -> list[str]:
    """sigma_z is the closed form for the stored AR(1); delta is the grid argmin."""
    problems = []
    chart, ar = model["chart"], model["ar"]
    want = ewma_sigma_z(chart["lam"], ar["phi"], ar["sigma2"])
    if not math.isclose(chart["sigma_z"], want, rel_tol=1e-12):
        problems.append(f"sigma_z {chart['sigma_z']!r} != closed form {want!r}")
    scores = [(float(np.mean(np.abs(np.asarray(g["msse"]) - 1.0))), g["delta"])
              for g in model["grid"]]
    if not scores:
        return problems + ["empty delta grid"]
    best = min(scores)[1]
    if model["delta"] != best:
        problems.append(f"delta {model['delta']!r} is not the grid argmin {best!r}")
    return problems


_ARL_LINE = re.compile(r"achieved ARL = ([-+0-9.eE]+|nan|inf) \+/-")


def check_calibrate(stdout: str, target_arl: float) -> list[str]:
    """The achieved ARL printed by ``calibrate`` is near the target."""
    match = _ARL_LINE.search(stdout)
    if match is None:
        return ["calibrate printed no achieved ARL"]
    arl = float(match.group(1))
    if not abs(arl - target_arl) <= ARL_TOLERANCE * target_arl:
        return [f"achieved ARL {arl!r} is not within {ARL_TOLERANCE:.0%} of "
                f"{target_arl!r}"]
    return []


def log_density_ratio(rows, mean, cov, target_mu, target_v) -> np.ndarray:
    """log N(y; mean, cov) - log N(y; target_mu, target_v) per row, via scipy."""
    return (multivariate_normal.logpdf(rows, mean, cov).reshape(-1)
            - multivariate_normal.logpdf(rows, target_mu, target_v).reshape(-1))


def check_frozen(model: dict, rows: np.ndarray, report: dict) -> list[str]:
    """Each reported LBF is the scipy density difference of
    N(m_opt, (delta + P*) S / delta) against the target N(mu, V)."""
    delta, p_star = model["delta"], model["p_star"]
    cov = (delta + p_star) * _matrix(model["s_opt"]) / delta
    want = log_density_ratio(rows, np.asarray(model["m_opt"]), cov,
                             np.asarray(model["target"]["mu"]),
                             _matrix(model["target"]["v"]))
    return _mismatch("frozen lbf", report["lbf"], want)


def plain_filter_lbf(model: dict, rows: np.ndarray) -> np.ndarray:
    """Score-then-step the discount filter from the model's state, plain numpy."""
    delta = model["delta"]
    t = int(model["n_phase1"])
    m = np.asarray(model["m_opt"], dtype=float)
    scale = model["p_star"]
    sum_outer = _matrix(model["s_opt"]) * t
    mu = np.asarray(model["target"]["mu"], dtype=float)
    v = _matrix(model["target"]["v"])
    out = np.empty(len(rows))
    for i, y in enumerate(rows):
        cov = (delta + scale) * (sum_outer / t) / delta
        out[i] = _log_normal(y, m, cov) - _log_normal(y, mu, v)
        e = y - m
        denom = delta + scale
        acc = sum_outer + (delta / denom) * np.outer(e, e)
        sum_outer = 0.5 * (acc + acc.T)
        m = (delta * m + scale * y) / denom
        scale = 1.0 / denom
        t += 1
    return out


def _log_normal(y, mean, cov) -> float:
    d = y - mean
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (len(d) * math.log(2.0 * math.pi) + logdet
                   + float(d @ np.linalg.solve(cov, d)))


def check_tracking(model: dict, rows: np.ndarray, report: dict,
                   first: int = TRACKING_ROWS) -> list[str]:
    """The leading tracking LBFs match the plain-numpy filter step."""
    k = min(first, len(rows))
    return _mismatch("tracking lbf", report["lbf"][:k],
                     plain_filter_lbf(model, rows[:k]))


def check_chart(model: dict, report: dict, exit_code: int) -> list[str]:
    """x and z follow from the LBFs by the EWMA recursion; flags, signals,
    limits and the exit code agree with ucl/lcl."""
    problems = []
    chart, points = report["chart"], report["points"]
    lam, mu_z = model["chart"]["lam"], model["chart"]["mu_z"]
    c, sigma_z = model["chart"]["c"], model["chart"]["sigma_z"]
    problems += _mismatch("limits", [chart["ucl"], chart["lcl"]],
                          [mu_z + c * sigma_z, mu_z - c * sigma_z])
    if len(points) != len(report["lbf"]):
        return problems + [f"{len(points)} points for {len(report['lbf'])} LBFs"]
    x = np.array([p["x"] for p in points], dtype=float)
    z = np.array([p["z"] for p in points], dtype=float)
    problems += _mismatch("x", x, np.asarray(report["lbf"]) - model["lbf_offset"])
    want_z = np.empty(len(x))
    prev = mu_z
    for t, value in enumerate(x):
        prev = lam * value + (1.0 - lam) * prev
        want_z[t] = prev
    problems += _mismatch("z", z, want_z)
    ucl, lcl = chart["ucl"], chart["lcl"]
    flags = [p["out_of_control"] for p in points]
    want_flags = [bool(v > ucl or v < lcl) for v in z]
    if flags != want_flags:
        k = next(i for i, (a, b) in enumerate(zip(flags, want_flags)) if a != b)
        problems.append(f"flag at t={k} is {flags[k]} but z={z[k]!r} against "
                        f"[{lcl!r}, {ucl!r}]")
    want_signals = [p["t"] for p in points if p["out_of_control"]]
    if report["signals"] != want_signals:
        problems.append("signals do not list the flagged points")
    if [p["t"] for p in points] != list(range(len(points))):
        problems.append("points are not numbered 0..n-1")
    want_code = 10 if report["signals"] else 0
    if exit_code != want_code:
        problems.append(f"exit code {exit_code} but {len(report['signals'])} "
                        f"signal(s) expect {want_code}")
    return problems
