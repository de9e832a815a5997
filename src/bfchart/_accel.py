"""Numeric kernels over whole series, one array implementation per formula.

* ``recurrence``: the one linear-recurrence kernel under the filter's
  constant-gain tail (``dwr.filter_path``), the EWMA, the run lengths,
  calibration's AR(1)+EWMA cascade and the AR(1) generator.  It means what
  ``scipy.signal.lfilter([b0], [1, a1(, a2)], x, zi=zi)`` means and runs in
  blocks of matrix products.
* ``lbf_path`` and ``_lbf``: the log Bayes factor of many observations
  against a ``bayesfactor.TargetSpec``, vectorised over rows; (m, P, S)
  broadcast, so scoring against one frozen state takes a single Cholesky
  factorisation, and ``lbf_path`` scores the rows of a ``dwr.FilterPath``.
* ``ewma_path`` and ``run_length_chunk``: the EWMA and the AR(1)+EWMA
  run-length recursions; ``cascade`` gives the latter's coefficients to
  calibration too.

The scalar forms (``dwr.FilterState.step``, one ``bayesfactor.lbf`` per
observation) and plain loops in the tests are the references these kernels
are checked against; the tests also check ``recurrence`` against
``lfilter``.  The package needs numpy only.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import CovarianceNotReady
from .linalg import chol_log_det, chol_sq

# perfbench hooks ewma_path, run_length_chunk and lbf_path here, so they stay in _accel

#: most steps ``recurrence`` runs as one matrix product; a block of width B
#: costs 2B flops per value, and more blocks cost more carry work
_BLOCK = 64
#: most multiply-adds in one matrix-product call: OpenBLAS runs a larger
#: product on all its threads, which for these thin products costs more
#: than it saves and slows the work after it
_PRODUCT_SIZE = 2**18


# ---------------------------------------------------------------------------
# linear recurrences
# ---------------------------------------------------------------------------


def recurrence(b0, a, x, zi):
    """y[t] = b0 x[t] - a1 y[t-1] - a2 y[t-2] along the last axis of x.

    ``a`` is (a1,) or (a1, a2) and ``zi``, of shape x.shape[:-1] + (len(a),),
    the initial state in ``scipy.signal.lfilter``'s transposed form: it adds
    zi[0] to y[0] and zi[1] to y[1].  Returns (y, zf) as
    ``lfilter([b0], [1, *a], x, zi=zi)`` does, equal up to rounding.  A
    first-order recurrence runs as a second-order one with a2 = 0.

    The steps are cut into blocks of equal width B <= _BLOCK, zero-padded at
    the end.  Within a block the output is the input convolved with the
    impulse response h, one product with the B x B Toeplitz matrix of h.  A
    block also gets a state from the block before it, added into its first
    two inputs: the state each block's own inputs pass on follows from its
    last two zero-state outputs, one thin product, and the states are
    carried across blocks by a doubling scan with powers of the 2 x 2 map
    that takes a block's starting state to its end state.
    """
    order = len(a)
    a1, a2 = float(a[0]), float(a[1]) if order > 1 else 0.0
    lead, n = x.shape[:-1], x.shape[-1]
    zi = np.asarray(zi, dtype=float)
    if n == 0:
        return np.empty(x.shape), zi.copy()
    blocks = -(-n // _BLOCK)
    width = -(-n // blocks)
    w = np.empty(lead + (blocks * width,))
    np.multiply(x, b0, out=w[..., :n])
    w[..., n:] = 0.0
    rows = w.reshape(-1, blocks, width)
    rows[:, 0, :min(order, width)] += zi.reshape(-1, order)[:, :width]
    h = [1.0, -a1]
    for _ in range(2, width):
        h.append(-a1 * h[-1] - a2 * h[-2])
    padded = np.array([0.0] * (width - 1) + h[:width])
    # toeplitz[j, i] = h[i - j], zero below the diagonal: rows that step
    # back through ``padded``, copied so that the products run in BLAS
    toeplitz = np.ascontiguousarray(np.ndarray(
        (width, width), buffer=padded, offset=(width - 1) * padded.itemsize,
        strides=(-padded.itemsize, padded.itemsize)))
    # the state (y[t-1], y[t-2]) leaves behind: (-a1 y[t-1] - a2 y[t-2], -a2 y[t-1])
    leave = np.array([[-a2, 0.0], [-a1, -a2]])  # rows: y[t-2], y[t-1]
    flat = w.reshape(-1, width)
    if blocks > 1:
        # the state each block's own inputs pass on, from its zero-state
        # last two outputs; width >= 3 here
        carry = _product(flat, toeplitz[:, -2:] @ leave).reshape(-1, blocks, 2)[:, :-1]
        # a block's starting state u (u_i added to input i) -> its end state
        step = np.array([[h[-2], h[-1]], [h[-3], h[-2]]]) @ leave
        shift = 1
        while shift < blocks - 1:
            carry[:, shift:] += carry[:, :-shift] @ step
            step = step @ step
            shift *= 2
        rows[:, 1:, :2] += carry
    y = _product(flat, toeplitz).reshape(lead + (blocks * width,))[..., :n]
    if n > 1:
        zf = y[..., -2:] @ leave
    else:
        zf = y[..., -1:] @ leave[1:]
        if order > 1:  # one step leaves zi[1] still to be added
            zf[..., 0] += zi[..., 1]
    return y, zf[..., :order]


def _product(a, b):
    """a @ b in calls of at most _PRODUCT_SIZE multiply-adds each."""
    out = np.empty((a.shape[0], b.shape[1]))
    span = max(1, _PRODUCT_SIZE // (a.shape[1] * b.shape[1]))
    for lo in range(0, a.shape[0], span):
        np.matmul(a[lo:lo + span], b, out=out[lo:lo + span])
    return out


# ---------------------------------------------------------------------------
# log Bayes factor
# ---------------------------------------------------------------------------


def _lbf(y, m, p_scale, s, delta, target, t0=0):
    """Log Bayes factor of each row of y against the target N(mu, V).

    (m, p_scale, s) are the pre-update mean (..., p), scale (...) and
    innovation covariance estimate (..., p, p) and broadcast against the
    rows of y; ``target`` is a ``bayesfactor.TargetSpec``, whose V enters
    through its Cholesky factor and log determinant.  Raises
    CovarianceNotReady, naming t0 plus the index of the first covariance
    that is not positive definite.
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
    q_target = chol_sq(target.chol, y - target.mu)
    q_pred = chol_sq(ls, y - m)
    denom = delta + p_scale
    base = 0.5 * p * math.log(delta) + 0.5 * target.logdet
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


def lbf_path(y, path, target, start):
    """Score observations ``start:`` of y against the ``dwr.FilterPath`` run
    over y; returns the n - start scores."""
    return _lbf(y[start:], path.m_pre[start:], path.p_pre[start:], path.s_pre[start:],
                path.delta, target, t0=start)


# ---------------------------------------------------------------------------
# EWMA paths and run lengths
# ---------------------------------------------------------------------------


def ewma_path(x, lam, z0):
    """z_t = lam x_t + (1 - lam) z_{t-1} from z_{-1} = z0."""
    return recurrence(lam, (lam - 1.0,), x, [(1.0 - lam) * z0])[0]


def cascade(lam, phi):
    """(a1, a2) of the AR(1) x_t = phi x_{t-1} + s_t smoothed by the EWMA
    z_t = lam x_t + (1 - lam) z_{t-1}, as one second-order recurrence of the
    shocks s: z_t = lam s_t + (phi + 1 - lam) z_{t-1} - phi (1 - lam) z_{t-2}.
    """
    return (-(phi + 1.0 - lam), phi * (1.0 - lam))


def run_length_chunk(noise, state, phi, icept, lam, ucl, lcl):
    """Advance the AR(1)+EWMA recursion through one noise chunk.

    The AR(1) x_t = icept + phi x_{t-1} + noise_t smoothed by z_t = lam x_t
    + (1 - lam) z_{t-1} runs as the ``cascade`` recurrence of the shocks
    icept + noise_t from ``state``, its ``recurrence`` state: from (x, z)
    before the chunk that is (lam phi x + (1 - lam) z, -phi (1 - lam) z).
    Returns (steps, signalled, state_end): on a signal the step count is
    the within-chunk index of the crossing (1-based), else the chunk
    length; state_end is the state after the whole chunk, from which the
    next chunk goes on.
    """
    zs, state_end = recurrence(lam, cascade(lam, phi), icept + noise, state)
    hit = (zs > ucl) | (zs < lcl)
    if hit.any():
        return int(np.argmax(hit)) + 1, True, state_end
    return noise.shape[0], False, state_end
