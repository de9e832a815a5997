"""Numeric kernels over whole series, one array implementation per formula.

* ``filter_path``: the discount local-level recursions over a series,
  optionally resumed from a filter state.
* ``lbf_path`` and ``_lbf``: the log Bayes factor of many observations,
  vectorised over rows; (m, P, S) broadcast, so scoring against one frozen
  state takes a single Cholesky factorisation.
* ``ewma_path`` and ``run_length_chunk``: the EWMA and the AR(1)+EWMA
  run-length recursions as ``scipy.signal.lfilter`` calls.

The scalar forms (``dwr.FilterState.step``, one ``bayesfactor.lbf`` per
observation) and plain loops in the tests are the references these kernels
are checked against.  ``scipy.signal`` is imported inside the functions: at
module level it would add about 0.4 s to every process importing bfchart.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import CovarianceNotReady
from .linalg import chol_log_det, chol_sq

#: relative distance from the scale limit below which the filter gain is
#: treated as constant; floating point settles P_t either on the limit or
#: on a two-cycle one ulp wide, so exact equality may never happen
_SETTLED_RTOL = 1e-15


# ---------------------------------------------------------------------------
# discount filter path
# ---------------------------------------------------------------------------


def scale_limit(delta: float) -> float:
    """Positive fixed point of P = 1/(delta + P): (sqrt(delta^2 + 4) - delta) / 2."""
    return (math.sqrt(delta * delta + 4.0) - delta) / 2.0


def scale_path(delta: float, p0: float, n: int) -> np.ndarray:
    """The data-free scales P_0 = p0, P_1, ..., P_n of the recursion."""
    out = np.empty(n + 1)
    scale = float(p0)
    out[0] = scale
    for t in range(1, n + 1):
        scale = 1.0 / (delta + scale)
        out[t] = scale
    return out


def filter_path(y, delta, m0, p0, t0=0, sum0=None):
    """Run the discount local-level recursions over a whole series.

    The run starts from the state (t0, m0, p0, sum0) -- t0 observations
    absorbed, posterior mean m0, scale p0 and running outer-product sum
    sum0 (zeros when None).  Returns (e, m_pre, p_pre, s_post, m_final,
    p_final, sum_final): the ``_pre`` arrays hold the quantities used to
    score observation t, and s_post[t] = sum of the weighted outer products
    so far divided by t0 + t + 1.

    P_t does not depend on the data.  Once it is within ``_SETTLED_RTOL`` of
    its limit, the mean recursion has a constant gain and runs as one
    first-order ``lfilter`` over the rest of the series.
    """
    from scipy.signal import lfilter

    n, p = y.shape
    scales = scale_path(delta, p0, n)
    p_pre = scales[:n]
    limit = scale_limit(delta)
    near = np.abs(p_pre - limit) <= _SETTLED_RTOL * limit
    settled = int(np.argmax(near)) if near.any() else n

    m_pre = np.empty((n, p))
    m = np.asarray(m0, dtype=float).copy()
    for t in range(settled):
        m_pre[t] = m
        denom = delta + p_pre[t]
        m = (delta * m + p_pre[t] * y[t]) / denom
    if settled < n:
        scale = p_pre[settled]
        denom = delta + scale
        gain = delta / denom
        m_post, _ = lfilter([scale / denom], [1.0, -gain], y[settled:], axis=0,
                            zi=(gain * m)[None, :])
        m_pre[settled] = m
        m_pre[settled + 1:] = m_post[:-1]
        m = m_post[-1].copy()

    e = y - m_pre
    weight = delta / (delta + p_pre)
    outer = weight[:, None, None] * (e[:, :, None] * e[:, None, :])
    start = np.zeros((1, p, p)) if sum0 is None else np.asarray(sum0, float)[None]
    sums = np.cumsum(np.concatenate([start, outer]), axis=0)[1:]
    s_post = sums / (t0 + np.arange(1.0, n + 1.0))[:, None, None]
    return e, m_pre, p_pre, s_post, m, float(scales[n]), sums[-1].copy()


# ---------------------------------------------------------------------------
# log Bayes factor
# ---------------------------------------------------------------------------


def _lbf(y, m, p_scale, s, delta, mu, l_target, logdet_target, t0=0):
    """Log Bayes factor of each row of y against the target N(mu, V).

    (m, p_scale, s) are the pre-update mean (..., p), scale (...) and
    innovation covariance estimate (..., p, p) and broadcast against the
    rows of y; V enters through its Cholesky factor and log determinant.
    Raises CovarianceNotReady, naming t0 plus the index of the first
    covariance that is not positive definite.
    """
    p = y.shape[-1]
    try:
        ls = np.linalg.cholesky(s)
        diag = np.diagonal(ls, axis1=-2, axis2=-1)
        # a non-finite input factors into NaNs instead of raising
        ready = np.all(np.isfinite(diag))
    except np.linalg.LinAlgError:
        ready = False
    if not ready:
        _raise_first_not_ready(np.reshape(s, (-1, p, p)), t0)
    logdet_s = chol_log_det(ls)
    q_target = chol_sq(l_target, y - mu)
    q_pred = chol_sq(ls, y - m)
    denom = delta + p_scale
    base = 0.5 * p * math.log(delta) + 0.5 * logdet_target
    return (
        base
        - 0.5 * p * np.log(denom)
        - 0.5 * logdet_s
        + 0.5 * q_target
        - 0.5 * delta * q_pred / denom
    )


def _raise_first_not_ready(stack, t0):
    """Raise CovarianceNotReady naming the first matrix without a finite Cholesky factor."""
    for k, a in enumerate(stack):
        try:
            ok = np.all(np.isfinite(np.linalg.cholesky(a)))
        except np.linalg.LinAlgError:
            ok = False
        if not ok:
            raise CovarianceNotReady(
                f"innovation covariance is not positive definite at t={t0 + k}", t=t0 + k
            )


def lbf_path(y, m_pre, p_pre, s_pre, delta, mu, l_target, logdet_target, start):
    """Score each observation from ``start`` on; entries before it are NaN."""
    out = np.full(y.shape[0], np.nan)
    out[start:] = _lbf(y[start:], m_pre[start:], p_pre[start:], s_pre[start:],
                       delta, mu, l_target, logdet_target, t0=start)
    return out


# ---------------------------------------------------------------------------
# EWMA paths and run lengths
# ---------------------------------------------------------------------------


def ewma_path(x, lam, z0):
    """z_t = lam x_t + (1 - lam) z_{t-1} from z_{-1} = z0."""
    from scipy.signal import lfilter

    if x.shape[0] == 0:
        return np.empty(0)
    z, _ = lfilter([lam], [1.0, -(1.0 - lam)], x, zi=[(1.0 - lam) * z0])
    return z


def run_length_chunk(noise, x, z, phi, icept, lam, ucl, lcl):
    """Advance the AR(1)+EWMA recursion through one noise chunk.

    Returns (steps_consumed, signalled, x_end, z_end); on a signal the step
    count is the within-chunk index of the crossing (1-based).
    """
    from scipy.signal import lfilter

    n = noise.shape[0]
    xs, _ = lfilter([1.0], [1.0, -phi], icept + noise, zi=[phi * x])
    zs, _ = lfilter([lam], [1.0, -(1.0 - lam)], xs, zi=[(1.0 - lam) * z])
    hit = (zs > ucl) | (zs < lcl)
    if hit.any():
        k = int(np.argmax(hit))
        return k + 1, True, float(xs[k]), float(zs[k])
    return n, False, float(xs[-1]), float(zs[-1])
