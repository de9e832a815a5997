"""Log Bayes factor of the one-step predictive error density vs the target.

For target N(mu, V) and a filter with pre-update quantities (m, P, S):

    lbf(y) = p/2 log(delta) + 1/2 log det V - p/2 log(delta + P)
             - 1/2 log det S + 1/2 (y-mu)' V^{-1} (y-mu)
             - delta (y-m)' S^{-1} (y-m) / (2 (delta + P))

A value of 0 means the predictive and target densities assign the same
likelihood to y; the chart monitors this statistic over time.  Only the log
form is computed: the plain ratio would overflow for large quadratic forms.
All three callers (``lbf_terms``, ``lbf_series`` and Phase I's
``_accel.lbf_path``) evaluate it with the one array kernel ``_accel._lbf``,
which takes the ``TargetSpec``.  ``lbf_series`` scores the pre-update
quantities of the ``dwr.FilterPath`` it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .dwr import FilterState, filter_path
from .exceptions import (
    CovarianceNotReady,
    DimensionMismatch,
    InvalidConfig,
    NotPositiveDefinite,
)
from .linalg import as_rows, as_spd, chol_log_det, cholesky


@dataclass(frozen=True)
class TargetSpec:
    """Target error density N(mu, V) with V's Cholesky factor and log
    determinant cached; mu, V and the factor are read-only copies."""

    mu: np.ndarray
    V: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)
    logdet: float = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        v = as_spd(self.V)
        if mu.shape != (v.shape[0],):
            raise DimensionMismatch(
                f"target mean shape {mu.shape} does not match V dim {v.shape[0]}"
            )
        if not np.isfinite(mu).all():
            raise InvalidConfig(f"target mean has a non-finite entry: {mu.tolist()}")
        chol = cholesky(v)
        for name, a in (("mu", mu), ("V", v), ("chol", chol)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "logdet", float(chol_log_det(chol)))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def lbf_terms(
    y,
    m: np.ndarray,
    p_scale: float,
    s: np.ndarray,
    delta: float,
    target: TargetSpec,
) -> np.ndarray:
    """The log Bayes factor of y from explicit pre-update components (m, P, S).

    y is one observation (p,) or rows (n, p); m, P and S broadcast against
    the rows, so scoring against one frozen state factorises S once.
    """
    obs = np.asarray(y, dtype=float)
    p = target.dim
    if obs.shape[-1:] != (p,):
        raise DimensionMismatch(f"observation shape {obs.shape} does not match dim {p}")
    return _accel._lbf(obs, m, p_scale, s, delta, target)


def _state_cov(state: FilterState) -> np.ndarray:
    """The state's S, checked finite and symmetric to ``linalg.SYM_ATOL``, symmetrized.

    Positive definiteness is checked where S is factorised, in ``_accel._lbf``.
    """
    s = state.S
    if s is None:
        raise CovarianceNotReady(
            f"innovation covariance is not positive definite at t={state.t}", t=state.t
        )
    try:
        return as_spd(s)
    except NotPositiveDefinite as err:
        raise CovarianceNotReady(
            f"innovation covariance at t={state.t} is not usable: {err}", t=state.t
        ) from err


def lbf_series(data, state: FilterState, target: TargetSpec) -> np.ndarray:
    """Score then advance the filter for each observation, in order.

    The state must already be warm (S positive definite).  The returned
    sequence is aligned with the input; the state ends advanced len(data)
    steps.  The filter runs as one resumed ``dwr.filter_path`` call and
    the scores as one batched LBF of its pre-update quantities, so the
    state is left unchanged when a covariance is not positive definite.
    Other than empty, ``data`` is read by ``linalg.as_rows`` at the target's dim.
    """
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        return np.empty(0)
    p = target.dim
    if state.m.shape != (p,):
        raise DimensionMismatch(f"state of shape {state.m.shape} does not match dim {p}")
    y = as_rows(arr, p)
    _state_cov(state)
    path = filter_path(y, state)
    out = _accel._lbf(y, path.m_pre, path.p_pre, path.s_pre, state.delta, target,
                      t0=state.t)
    final = path.final
    state.t, state.m, state.P, state.sum_outer = final.t, final.m, final.P, final.sum_outer
    return out
