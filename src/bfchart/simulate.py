"""Scenario generators for tests, calibration studies and the CLI.

``reference_scenarios`` is the bivariate four-panel study used throughout
the test suite: an in-control configuration plus mean-shift, covariance-
shift and joint-shift deviations from it.  ``gen_local_level`` simulates
the random-walk-mean process that the discount filter tracks; its level
noise scale is chosen so the filter's steady-state gain is the optimal
gain for the simulated process, making the generator and the filter
mutually consistent (forecast errors white, MSSE near 1, covariance
estimate unbiased).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _accel
from .chart import Ar1Model
from .dwr import DwrConfig, run_filter, steady_state_scale
from .exceptions import DimensionMismatch, InvalidConfig
from .linalg import as_spd, cholesky, sample_mvn

SCENARIO_NAMES = ("in_control", "mean_shift", "cov_shift", "both_shift")


@dataclass(frozen=True)
class Scenario:
    """An i.i.d. normal data-generating configuration."""

    name: str
    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "cov", as_spd(self.cov))
        if self.mu.shape != (self.cov.shape[0],):
            raise DimensionMismatch(
                f"mean shape {self.mu.shape} does not match covariance dim "
                f"{self.cov.shape[0]}"
            )


def reference_scenarios() -> dict[str, Scenario]:
    """The four bivariate study configurations, keyed by name."""
    mu = np.array([0.0, 0.0])
    mu_d = np.array([0.5, 0.0])
    v = np.array([[1.0, 2.0], [2.0, 5.0]])
    v_d = np.array([[1.0, 2.5], [2.5, 8.0]])
    return {
        "in_control": Scenario("in_control", mu, v),
        "mean_shift": Scenario("mean_shift", mu_d, v),
        "cov_shift": Scenario("cov_shift", mu, v_d),
        "both_shift": Scenario("both_shift", mu_d, v_d),
    }


def gen_iid(scenario: Scenario, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the scenario's normal distribution."""
    return sample_mvn(scenario.mu, scenario.cov, n, rng)


def level_noise_scale(delta: float) -> float:
    """Random-walk noise scale making the filter exact at steady state.

    With P the steady-state scale, the filter's steady gain is P^2; the
    level noise variance q Sigma with q = P^4 / (1 - P^2) is the unique
    choice for which that gain is the optimal steady-state gain of the
    simulated local level process.
    """
    p_lim = steady_state_scale(delta)
    return p_lim**4 / (1.0 - p_lim**2)


def gen_local_level(
    config: DwrConfig, sigma, n: int, rng: np.random.Generator
) -> np.ndarray:
    """A realization of y_t = mu_t + eps_t with mu_t a random walk from 0.

    eps_t ~ N(0, Sigma) and the walk noise is N(0, q Sigma) with q from
    ``level_noise_scale(config.delta)``.
    """
    if n < 1:
        raise InvalidConfig(f"sample count must be >= 1, got {n}")
    L = cholesky(sigma)
    if L.shape[0] != config.dim:
        raise DimensionMismatch(
            f"covariance dim {L.shape[0]} does not match config dim {config.dim}"
        )
    q = level_noise_scale(config.delta)
    walk = np.sqrt(q) * rng.standard_normal((n, config.dim)) @ L.T
    noise = rng.standard_normal((n, config.dim)) @ L.T
    return np.cumsum(walk, axis=0) + noise


def gen_ar1(ar: Ar1Model, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stationary-start AR(1) realization of length n, as one first-order
    ``_accel.recurrence`` pass over the shifted noise."""
    if n < 1:
        raise InvalidConfig(f"sample count must be >= 1, got {n}")
    x0 = ar.mean + np.sqrt(ar.variance) * rng.standard_normal()
    noise = np.sqrt(ar.sigma2) * rng.standard_normal(n)
    x, _ = _accel.recurrence(1.0, (-ar.phi,), ar.intercept + noise, [ar.phi * x0])
    return x


def scenario_lbf_study(
    n: int = 1000,
    warmup: int = 100,
    delta: float = 0.9,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Log-Bayes-factor samples for the four reference scenarios.

    Each panel warms a fresh filter on ``warmup`` in-control draws (the
    statistic needs a positive definite covariance estimate before scoring),
    then scores ``n`` draws from its scenario against the in-control target.
    The filter keeps updating while scoring.
    """
    from . import bayesfactor
    from .linalg import make_rng

    scenarios = reference_scenarios()
    target = bayesfactor.TargetSpec(
        mu=scenarios["in_control"].mu, V=scenarios["in_control"].cov
    )
    out = {}
    for index, name in enumerate(SCENARIO_NAMES):
        rng = make_rng(seed, index)
        config = DwrConfig(dim=2, delta=delta)
        warm = gen_iid(scenarios["in_control"], warmup, rng)
        state = run_filter(config, warm).final
        draws = gen_iid(scenarios[name], n, rng)
        out[name] = bayesfactor.lbf_series(draws, state, target)
    return out
