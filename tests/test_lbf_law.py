"""The law of the in-control log Bayes factor of a settled filter, against
its closed form.

The filter has settled: its scale is P* = (sqrt(delta^2 + 4) - delta) / 2,
its mean moves with the gain g = P*^2 = P* / (delta + P*), and S is at its
limit (1 - g) c0 Sigma with c0 = 2 / (2 - g), so that the predictive
covariance (delta + P*) / delta S is c0 Sigma, the variance of the
prediction error.  Its rows are iid N(0, Sigma), scored against the target
N(0, Sigma).  Then the LBF has mean -(p/2) log c0, variance p g / 2, and
lag-one and lag-two autocorrelations rho1 = -g (3 - 2g) / 4 and
rho2 = rho1 (1 - g)^2.

Each statistic is a sample mean of a stationary series (the LBF, and the
products of its deviations from the closed-form mean at lags 0, 1 and 2);
its margin is five standard errors from batch means.
"""

import math

import numpy as np
import pytest

from bfchart import _accel
from bfchart.bayesfactor import TargetSpec

ROWS = 200_000
#: rows scored before the kept ones, while the mean path leaves its start
BURN_IN = 1_000
BATCHES = 100
SIGMAS = 5.0


def settled(delta):
    """The settled filter's scale P* and gain g."""
    p_star = (math.sqrt(delta * delta + 4.0) - delta) / 2.0
    return p_star, p_star * p_star


def closed_form(delta, p):
    """Mean, variance, rho1 and rho2 of the in-control LBF."""
    g = settled(delta)[1]
    c0 = 2.0 / (2.0 - g)
    rho1 = -g * (3.0 - 2.0 * g) / 4.0
    return -0.5 * p * math.log(c0), 0.5 * p * g, rho1, rho1 * (1.0 - g) ** 2


def in_control_lbf(delta, p, seed):
    """The LBF of ROWS iid N(0, Sigma) rows, for a random SPD Sigma, scored
    by the settled filter against the target N(0, Sigma)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    sigma = a @ a.T + p * np.eye(p)
    y = rng.standard_normal((BURN_IN + ROWS, p)) @ np.linalg.cholesky(sigma).T
    p_star, g = settled(delta)
    # m_t = g y_t + (1 - g) m_{t-1} from m_{-1} = 0; row t is scored
    # against m_{t-1}
    m = _accel.recurrence(g, (g - 1.0,), y.T, np.zeros((p, 1)))[0].T
    m_pre = np.vstack([np.zeros((1, p)), m[:-1]])
    s = (1.0 - g) * (2.0 / (2.0 - g)) * sigma
    target = TargetSpec(mu=np.zeros(p), V=sigma)
    return _accel._lbf(y, m_pre, p_star, s, delta, target)[BURN_IN:]


def assert_mean_within(series, want, name):
    batches = series.reshape(BATCHES, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(BATCHES)
    got = series.mean()
    assert abs(got - want) <= SIGMAS * se, f"{name}: {got:.5f} against {want:.5f} (se {se:.2e})"


@pytest.mark.parametrize("p", [1, 2, 5])
@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_in_control_lbf_matches_the_closed_form(delta, p):
    mean, var, rho1, rho2 = closed_form(delta, p)
    lbf = in_control_lbf(delta, p, seed=int(10 * delta) * 10 + p)
    d = lbf - mean
    # whole batches, leaving the two rows the lagged products reach past
    cut = (len(d) - 2) // BATCHES * BATCHES
    assert_mean_within(lbf[:cut], mean, "mean")
    assert_mean_within(d[:cut] * d[:cut], var, "variance")
    assert_mean_within(d[:cut] * d[1:cut + 1], rho1 * var, "lag-one autocovariance")
    assert_mean_within(d[:cut] * d[2:cut + 2], rho2 * var, "lag-two autocovariance")
