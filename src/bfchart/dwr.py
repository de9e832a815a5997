"""Multivariate discount-weighted local level filter.

The filter keeps a posterior mean vector ``m``, a scalar scale ``P`` and a
running innovation covariance estimate ``S``.  For an observation y the
one-step forecast error is e = y - m, after which

    m <- (delta m + P y) / (delta + P)
    P <- 1 / (delta + P)
    S <- running mean of delta e e' / (delta + P_prev)

A fresh filter starts from m = 0 and P = ``DEFAULT_PRIOR_SCALE``.  The
one-step forecast error density is N(0, (delta + P) S / delta); it enters the
package only through the log Bayes factor (``_accel._lbf``).  ``P``
converges to the data-free limit (sqrt(delta^2 + 4) - delta) / 2 and ``S``
estimates the measurement covariance.

``S`` is held as a running sum divided by t.  Each term delta e e' / (delta + P)
is exactly symmetric in floating point (e_i e_j = e_j e_i), so a sum that
starts symmetric stays exactly symmetric without re-symmetrization.

``filter_path`` runs the recursions over a whole series as arrays and
returns a ``FilterPath``, which holds the covariance estimates as one
array; ``run_filter`` runs it from a fresh state.  No row is stepped alone:
P_t does not depend on the data, so the mean recursion is a linear map of
the rows, run as blocked matrix products while P_t is still moving and as
one constant-gain recurrence once it has settled.  ``FilterState.step``,
one observation at a time, is the scalar form it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accel import _BLOCK, _PRODUCT_SIZE, recurrence
from .exceptions import DimensionMismatch, InvalidConfig
from .linalg import as_rows

#: prior scale of a fresh filter; small so the first observation dominates
#: the zero prior mean
DEFAULT_PRIOR_SCALE = 1e-3

#: relative distance from the scale limit below which the filter gain is
#: treated as constant; floating point settles P_t either on the limit or
#: on a two-cycle one ulp wide, so exact equality may never happen
_SETTLED_RTOL = 1e-15


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta <= 1.0:
        raise InvalidConfig(f"discount factor must lie in (0, 1], got {delta}")
    return delta


@dataclass(frozen=True)
class DwrConfig:
    """Dimension and discount factor of the filter."""

    dim: int
    delta: float

    def __post_init__(self):
        if int(self.dim) < 1:
            raise InvalidConfig(f"dimension must be >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "delta", _check_delta(self.delta))


@dataclass
class FilterState:
    """Sequential filter state; one logical owner advances it in time order."""

    delta: float
    t: int
    m: np.ndarray
    P: float
    sum_outer: np.ndarray

    @property
    def S(self) -> np.ndarray | None:
        """Innovation covariance estimate after t observations; None at t=0."""
        if self.t == 0:
            return None
        return self.sum_outer / self.t

    def step(self, y) -> np.ndarray:
        """Absorb one observation, returning the one-step forecast error."""
        obs = np.asarray(y, dtype=float)
        if obs.shape != self.m.shape:
            raise DimensionMismatch(
                f"observation of shape {obs.shape} does not match dim {self.m.shape}"
            )
        e = obs - self.m
        denom = self.delta + self.P
        self.sum_outer = self.sum_outer + (self.delta / denom) * np.outer(e, e)
        self.m = (self.delta * self.m + self.P * obs) / denom
        self.P = 1.0 / denom
        self.t += 1
        return e

    def copy(self) -> "FilterState":
        return FilterState(self.delta, self.t, self.m.copy(), self.P, self.sum_outer.copy())


def init(config: DwrConfig) -> FilterState:
    """Fresh filter state: zero prior mean and scale ``DEFAULT_PRIOR_SCALE``."""
    return FilterState(
        delta=config.delta,
        t=0,
        m=np.zeros(config.dim),
        P=DEFAULT_PRIOR_SCALE,
        sum_outer=np.zeros((config.dim, config.dim)),
    )


def steady_state_scale(delta: float) -> float:
    """Limit of the P recursion: (sqrt(delta^2 + 4) - delta) / 2.

    The limit is the positive solution of the fixed point P = 1/(delta + P).
    """
    delta = _check_delta(delta)
    return (math.sqrt(delta * delta + 4.0) - delta) / 2.0


def scale_sequence(delta: float, p0: float = DEFAULT_PRIOR_SCALE, n: int = 200) -> np.ndarray:
    """The data-free trajectory P_1..P_n of the scale recursion from P_0 = p0.

    Once P_t equals P_{t-2}, the sequence repeats with period 1 or 2 (the
    limit, or a two-cycle one ulp wide), so the rest is filled in without
    running the recursion.
    """
    delta = _check_delta(delta)
    if p0 <= 0.0:
        raise InvalidConfig(f"prior scale must be > 0, got {p0}")
    out = np.empty(n)
    older, old = math.nan, float(p0)
    for t in range(n):
        scale = 1.0 / (delta + old)
        out[t] = scale
        if scale == older:
            out[t + 1::2] = old
            out[t + 2::2] = scale
            break
        older, old = old, scale
    return out


def filter_path(y, start: FilterState) -> "FilterPath":
    """Run the discount local-level recursions over a whole series.

    The run starts from ``start``, which it leaves as it is, and returns
    the ``FilterPath``: the covariance estimates s[0] (the start's S, zero
    for a fresh filter) to s[n] = sum of the weighted outer products so far
    divided by start.t + n, and the state after the last observation.

    P_t does not depend on the data.  Until it is within ``_SETTLED_RTOL``
    of its limit, the means come from ``_prefix_means``, one product per
    block of at most ``_accel._BLOCK`` rows, in calls of at most
    _PRODUCT_SIZE // _BLOCK rows; from there the mean recursion has a
    constant gain and runs as one first-order ``recurrence`` over the rest
    of the series.
    """
    n, p = y.shape
    delta = start.delta
    scales = np.concatenate([[float(start.P)], scale_sequence(delta, start.P, n)])
    p_pre = scales[:n]
    limit = steady_state_scale(delta)
    near = np.abs(p_pre - limit) <= _SETTLED_RTOL * limit
    settled = int(np.argmax(near)) if near.any() else n

    m_pre = np.empty((n, p))
    m = np.asarray(start.m, dtype=float).copy()
    # each call's transfer matrices hold at most _PRODUCT_SIZE entries
    span = _PRODUCT_SIZE // _BLOCK
    for lo in range(0, settled, span):
        hi = min(settled, lo + span)
        post = _prefix_means(y[lo:hi], m, p_pre[lo:hi], delta)
        m_pre[lo] = m
        m_pre[lo + 1:hi] = post[:-1]
        m = post[-1].copy()
    if settled < n:
        scale = p_pre[settled]
        denom = delta + scale
        gain = delta / denom
        m_post, _ = recurrence(scale / denom, (-gain,), y[settled:].T, (gain * m)[:, None])
        m_pre[settled] = m
        m_pre[settled + 1:] = m_post[:, :-1].T
        m = m_post[:, -1].copy()

    e = y - m_pre
    # s holds the running sums, then the estimates, in place
    s = np.empty((n + 1, p, p))
    # a symmetric start keeps every later S exactly symmetric
    s[0] = 0.5 * start.sum_outer + 0.5 * start.sum_outer.T
    np.multiply(e[:, :, None], e[:, None, :], out=s[1:])
    s[1:] *= (delta / (delta + p_pre))[:, None, None]
    np.cumsum(s, axis=0, out=s)
    final = FilterState(delta, start.t + n, m, float(scales[n]), s[-1].copy())
    s /= np.maximum(start.t + np.arange(n + 1.0), 1.0)[:, None, None]
    return FilterPath(delta=delta, errors=e, m_pre=m_pre, p_pre=p_pre, s=s, final=final)


def _prefix_means(y, m, scales, delta):
    """The means after each row of y, from mean m, when row t meets scale
    scales[t]: m <- a_t m + b_t y_t with a_t = delta / (delta + P_t) and
    b_t = P_t / (delta + P_t).

    The rows run in blocks of equal width B <= _BLOCK, the last zero-padded
    with steps a = 1, b = 0 that leave the mean as it is.  Within a block
    the means are one product of its rows with the B x B transfer matrix
    T[i, j] = b_j (a_{j+1} ... a_i), zero above the diagonal, plus the
    block's starting mean times the gain product a_0 ... a_i.  T depends on
    P_t only.  Both are exponentials of differences of the cumulative log
    gains, never a quotient of two gain products, which would read 0 / 0
    once the products underflow (delta near 0 gives gains near 1e-3 and
    1e-9 in turn).  The exponents are held at or above the log of the
    smallest normal double, because an exp that underflows runs about 20
    times slower; a weight raised to 2.2e-308 moves a mean by at most
    2.2e-308 times the largest input.  Only the starting means are carried
    from block to block.
    """
    rows, p = y.shape
    blocks = -(-rows // _BLOCK)
    width = -(-rows // blocks)
    denom = delta + scales
    logs = np.zeros(blocks * width)
    np.log(delta / denom, out=logs[:rows])
    inputs = np.zeros((blocks * width, p))
    np.multiply(y, (scales / denom)[:, None], out=inputs[:rows])
    # c[k, i]: log of the gain product a_0 ... a_i of block k; it never
    # increases along i, so d below is <= 0 on and below the diagonal
    c = np.cumsum(logs.reshape(blocks, width), axis=1)
    floor = math.log(np.finfo(float).tiny)
    d = c[:, :, None] - c[:, None, :]
    np.clip(d, floor, 0.0, out=d)
    np.exp(d, out=d)
    d *= np.tri(width)
    post = d @ inputs.reshape(blocks, width, p)
    gains = np.exp(np.maximum(c, floor))
    for k in range(blocks):
        post[k] += gains[k, :, None] * m
        m = post[k, -1]
    return post.reshape(-1, p)[:rows]


@dataclass(frozen=True)
class FilterPath:
    """Vectorized filter run over a full series.

    ``errors[t]``, ``m_pre[t]``, ``p_pre[t]`` and ``s_pre[t]`` are the
    quantities in force when observation t arrived; ``s`` (n+1, p, p) holds
    every covariance estimate once, s[t] after t observations, and
    ``final`` is the state after the last observation.
    """

    delta: float
    errors: np.ndarray
    m_pre: np.ndarray
    p_pre: np.ndarray
    s: np.ndarray
    final: FilterState

    @property
    def s_pre(self) -> np.ndarray:
        """The covariance estimate in force when each observation arrived."""
        return self.s[:-1]

    @property
    def s_post(self) -> np.ndarray:
        """The covariance estimate after each observation."""
        return self.s[1:]

    @property
    def warmup(self) -> int | None:
        """First index t whose pre-update covariance s_pre[t] is solidly SPD.

        Requires the smallest eigenvalue to clear a relative threshold, not
        just a Cholesky success: a barely positive definite early estimate
        would make the standardization and Bayes factors numerically wild.
        """
        for t in range(1, self.errors.shape[0]):
            w = np.linalg.eigvalsh(self.s_pre[t])
            if w[0] > 0.0 and w[0] > 1e-8 * w[-1]:
                return t
        return None


def run_filter(config: DwrConfig, data) -> FilterPath:
    """Run a fresh filter (see ``init``) over ``as_rows(data, config.dim)`` in one pass."""
    y = np.ascontiguousarray(as_rows(data, config.dim))
    return filter_path(y, init(config))
