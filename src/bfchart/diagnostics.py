"""Model-adequacy statistics and supporting sample statistics.

MSSE standardizes each one-step forecast error by the inverse symmetric
square root of its forecast covariance and averages the squares per
coordinate; a good fit gives entries near 1.  Above 2 x 2 the root is never
formed: each error is whitened from its covariance's eigenpairs.  MAE is
the per-coordinate mean absolute error.  MAPE only makes sense for
positive-valued series and is reported as NaN for any coordinate with a
non-positive observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, EmptyInput, TooShort, ZeroVariance
from .linalg import spd_eigh, sym_inv_sqrt


@dataclass(frozen=True)
class FitReport:
    """Per-coordinate adequacy statistics over n scored observations.

    ``mape`` entries are NaN for coordinates where the statistic is not
    meaningful (non-positive observations).  The arrays are read-only copies.
    """

    msse: np.ndarray
    mae: np.ndarray
    mape: np.ndarray
    n: int

    def __post_init__(self):
        for name in ("msse", "mae", "mape"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def msse_score(self) -> float:
        """Mean absolute deviation of the MSSE entries from 1."""
        return float(np.mean(np.abs(self.msse - 1.0)))


def standardize_errors(errors, covs) -> np.ndarray:
    """Whiten each error by the inverse symmetric square root of its covariance.

    1 x 1 and 2 x 2 covariances get their inverse roots in closed form from
    ``linalg.sym_inv_sqrt``.  Larger ones get none: each error e
    is whitened from its covariance's eigenpairs (``linalg.spd_eigh``) as
    u ((u'e) / sqrt(w)), which is C^-1/2 e with C^-1/2 = u diag(w^-1/2) u'.
    """
    errs = np.asarray(errors, dtype=float)
    if len(errs) != len(covs):
        raise DimensionMismatch(
            f"{len(errs)} errors but {len(covs)} covariance matrices"
        )
    if not len(errs):
        return np.empty_like(errs)
    c = np.asarray(covs, dtype=float)
    if c.ndim < 2 or c.shape[-1] <= 2:
        return (sym_inv_sqrt(c) @ errs[..., None])[..., 0]
    w, u = spd_eigh(c)
    z = (np.swapaxes(u, -1, -2) @ errs[..., None]) / np.sqrt(w)[..., None]
    return (u @ z)[..., 0]


def msse(e_star) -> np.ndarray:
    """Per-coordinate mean of squared standardized errors."""
    arr = np.asarray(e_star, dtype=float)
    if arr.size == 0:
        raise EmptyInput("no standardized errors supplied")
    return np.mean(arr * arr, axis=0)


def mae(errors) -> np.ndarray:
    """Per-coordinate mean absolute error."""
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise EmptyInput("no errors supplied")
    return np.mean(np.abs(arr), axis=0)


def mape(errors, observations) -> np.ndarray:
    """Per-coordinate mean of |e|/y; NaN where any y is non-positive."""
    e = np.asarray(errors, dtype=float)
    y = np.asarray(observations, dtype=float)
    if e.size == 0:
        raise EmptyInput("no errors supplied")
    if e.shape != y.shape:
        raise DimensionMismatch(
            f"errors of shape {e.shape} do not align with observations {y.shape}"
        )
    out = np.full(e.shape[1], np.nan)
    positive = np.all(y > 0.0, axis=0)
    if positive.any():
        ratios = np.abs(e[:, positive]) / y[:, positive]
        out[positive] = np.mean(ratios, axis=0)
    return out


def fit_report(errors, covs, observations) -> FitReport:
    """Bundle MSSE/MAE/MAPE for aligned errors, forecast covariances and data."""
    e_star = standardize_errors(errors, covs)
    return FitReport(
        msse=msse(e_star),
        mae=mae(errors),
        mape=mape(errors, observations),
        n=len(e_star),
    )


def lag1_autocorr(x) -> float:
    """Sample lag-1 autocorrelation, denominator the full sum of squares."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise TooShort(f"need at least 3 values, got {arr.size}")
    centered = arr - arr.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise ZeroVariance("constant sequence has no autocorrelation")
    return float(centered[:-1] @ centered[1:]) / denom


def skewness(x) -> float:
    """Standardized third sample moment (no bias correction)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise TooShort(f"need at least 3 values, got {arr.size}")
    centered = arr - arr.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise ZeroVariance("constant sequence has no skewness")
    return float(np.mean(centered**3)) / m2**1.5
