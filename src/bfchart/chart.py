"""Modified EWMA control chart for a serially correlated statistic.

The chart smooths the monitored statistic with z = lam x + (1 - lam) z and
compares it against time-invariant limits mu_z +/- c sigma_z, where
sigma_z^2 is the asymptotic EWMA variance under AR(1) dependence:

    sigma_z^2 = sigma^2 lam (1 + phi (1 - lam))
                / [(1 - phi^2) (2 - lam) (1 - phi (1 - lam))]

sigma_z scales with sigma, so the limit multiplier c depends on lam and phi
alone; it is calibrated so that the in-control average run length matches a
target (370.4 by default elsewhere).  Under common random numbers a
replication's AR(1)+EWMA path does not depend on c, so the Monte Carlo ARL
is a monotone step function of c; ``calibrate_c`` simulates all
replications as one batch, extends only the runs the answer still depends
on, and solves ARL(c) = target exactly on that step function.  Every
replication's starting value and noise come from one RNG stream of the
seed, so calibration is deterministic under a fixed seed.  Where the
process may use two CPUs, the noise is drawn a buffer ahead on a second
thread (``_threads.ahead``), since numpy fills the buffer with the GIL
released; the values, and so the result, are the same as drawn inline.
``estimate_arl`` is the independent per-replication estimate at a fixed c,
with one stream per (seed, replication).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _accel, _threads
from .exceptions import BracketFailure, InvalidConfig, NonStationary, TooShort
from .linalg import make_rng

#: hard cap on a single simulated run length; beyond it the run is censored
RUN_LENGTH_CAP = 10**7

_CHUNK = 2048

#: calibration simulates the replications in blocks of this many, so that
#: a chunk of _CHUNK_ELEMENTS values spans at least 64 steps
_CALIB_BLOCK = 1024
#: steps every replication is simulated for in the first calibration round
_FIRST_HORIZON = 256
#: most values (replications x steps) calibration simulates at once
_CHUNK_ELEMENTS = 2**16
#: the provisional stop height assumes an ARL this many times the target
_GUESS_MARGIN = 1.25
#: the interval calibration searches for c
_BRACKET = (0.5, 6.0)


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0.0 < lam <= 1.0:
        raise InvalidConfig(f"EWMA smoothing parameter must lie in (0, 1], got {lam}")
    return lam


def check_chart_settings(lam: float, target_arl: float, reps: int) -> float:
    """Refuse with InvalidConfig a target ARL that is not finite and above 1
    or not below ``RUN_LENGTH_CAP`` (runs are censored there, so no chart
    can reach it), fewer than one replication or a smoothing parameter
    outside (0, 1]; returns the smoothing parameter as a float."""
    if not 1.0 < target_arl < math.inf:
        raise InvalidConfig(f"target ARL must be finite and exceed 1, got {target_arl}")
    if target_arl >= RUN_LENGTH_CAP:
        raise InvalidConfig(
            f"target ARL must be below the run-length cap {RUN_LENGTH_CAP}, got {target_arl}")
    if reps < 1:
        raise InvalidConfig(f"replication count must be >= 1, got {reps}")
    return _check_lambda(lam)


def check_ar_coefficient(phi: float) -> None:
    """Refuse a phi that is not finite (InvalidConfig) or of modulus >= 1 (NonStationary)."""
    if not math.isfinite(phi):
        raise InvalidConfig(f"autoregressive coefficient phi must be finite, got {phi}")
    if abs(phi) >= 1.0:
        raise NonStationary(f"autoregressive coefficient {phi} has modulus >= 1")


@dataclass(frozen=True)
class Ar1Model:
    """Stationary AR(1): x_t = intercept + phi x_{t-1} + nu_t, nu ~ N(0, sigma2)."""

    intercept: float
    phi: float
    sigma2: float

    def __post_init__(self):
        # the checks are written so that NaN fails them
        if not math.isfinite(self.intercept):
            raise InvalidConfig(f"AR(1) intercept must be finite, got {self.intercept}")
        check_ar_coefficient(self.phi)
        if not 0.0 < self.sigma2 < math.inf:
            raise InvalidConfig(f"innovation variance must be finite and > 0, got {self.sigma2}")

    @property
    def mean(self) -> float:
        """Stationary mean intercept / (1 - phi)."""
        return self.intercept / (1.0 - self.phi)

    @property
    def variance(self) -> float:
        """Stationary variance sigma2 / (1 - phi^2)."""
        return self.sigma2 / (1.0 - self.phi**2)


@dataclass(frozen=True)
class ChartConfig:
    """EWMA smoothing, center and derived control limits."""

    lam: float
    c: float
    mu_z: float
    sigma_z: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lambda(self.lam))
        if not 0.0 < self.c < math.inf:
            raise InvalidConfig(f"limit multiplier must be finite and > 0, got {self.c}")
        if not 0.0 < self.sigma_z < math.inf:
            raise InvalidConfig(f"sigma_z must be finite and > 0, got {self.sigma_z}")
        if not math.isfinite(self.mu_z):
            raise InvalidConfig(f"chart center must be finite, got {self.mu_z}")

    @property
    def ucl(self) -> float:
        return self.mu_z + self.c * self.sigma_z

    @property
    def lcl(self) -> float:
        return self.mu_z - self.c * self.sigma_z


def asymptotic_sigma_z2(lam: float, ar: Ar1Model) -> float:
    """Asymptotic EWMA variance under AR(1) dependence; sigma2 lam/(2-lam) at phi=0."""
    lam = _check_lambda(lam)
    damp = ar.phi * (1.0 - lam)
    if abs(damp) >= 1.0:
        raise InvalidConfig(f"|phi (1 - lam)| must be < 1, got {damp}")
    num = ar.sigma2 * lam * (1.0 + damp)
    den = (1.0 - ar.phi**2) * (2.0 - lam) * (1.0 - damp)
    return num / den


def fit_ar1(x) -> Ar1Model:
    """OLS of x_t on (1, x_{t-1}); sigma2 = RSS / (n - 3)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 10:
        raise TooShort(f"need at least 10 values to fit an AR(1), got {arr.size}")
    design = np.column_stack([np.ones(arr.size - 1), arr[:-1]])
    coef, _, _, _ = np.linalg.lstsq(design, arr[1:], rcond=None)
    resid = arr[1:] - design @ coef
    sigma2 = float(resid @ resid) / (arr.size - 3)
    intercept, phi = float(coef[0]), float(coef[1])
    if abs(phi) >= 1.0:
        raise NonStationary(f"fitted autoregressive coefficient {phi} has modulus >= 1")
    if sigma2 <= 0.0:
        raise NonStationary("residual variance collapsed to zero; series is deterministic")
    return Ar1Model(intercept=intercept, phi=phi, sigma2=sigma2)


def design_chart(ar: Ar1Model, lam: float, c: float, center: float = 0.0) -> ChartConfig:
    """Time-invariant limits center +/- c sigma_z from the asymptotic variance."""
    sigma_z = math.sqrt(asymptotic_sigma_z2(lam, ar))
    return ChartConfig(lam=lam, c=c, mu_z=float(center), sigma_z=sigma_z)


def run_chart(x, config: ChartConfig) -> tuple[np.ndarray, np.ndarray]:
    """Smooth a statistic sequence from the chart center and flag every point.

    Monitoring continues past signals; returns the EWMA values z and the
    boolean out-of-control flags, one of each per input value.
    """
    z = _accel.ewma_path(np.ascontiguousarray(x, dtype=float), config.lam, config.mu_z)
    return z, (z > config.ucl) | (z < config.lcl)


def estimate_arl(
    config: ChartConfig,
    ar: Ar1Model,
    reps: int,
    seed: int,
    cap: int = RUN_LENGTH_CAP,
) -> tuple[float, float, int]:
    """Mean run length over seeded replications: (mean, standard error, censored).

    Replication ``rep`` draws from its own stream (seed, rep).  Its AR(1)
    starts from its stationary distribution and the EWMA from the chart
    center, and its run length is the first time the EWMA leaves the
    limits; runs longer than ``cap`` are censored at ``cap``.
    """
    sigma = math.sqrt(ar.sigma2)
    lam, damp = config.lam, 1.0 - config.lam
    lengths = np.empty(reps)
    censored = 0
    for rep in range(reps):
        rng = make_rng(seed, rep)
        x = ar.mean + math.sqrt(ar.variance) * rng.standard_normal()
        state = [lam * ar.phi * x + damp * config.mu_z, -ar.phi * damp * config.mu_z]
        total, signalled = 0, False
        while total < cap and not signalled:
            noise = sigma * rng.standard_normal(min(_CHUNK, cap - total))
            steps, signalled, state = _accel.run_length_chunk(
                noise, state, ar.phi, ar.intercept, lam, config.ucl, config.lcl
            )
            total += steps
        lengths[rep] = total
        censored += not signalled
    mean = float(lengths.mean())
    se = float(lengths.std(ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf
    return mean, se, censored


@dataclass(frozen=True)
class CalibrationResult:
    c: float
    arl: float
    arl_se: float
    #: simulation rounds the search needed
    evaluations: int
    #: replications that reach the run-length cap without a signal at c
    censored: int
    #: noise values simulated over all replications
    simulated_steps: int


class _NormalStream:
    """The standard normal values of one generator, handed out in order.

    The values are drawn _CHUNK_ELEMENTS at a time into buffers allocated
    on the calling thread, so that their memory goes back to its heap; on a
    pool of one thread, the first buffer is drawn from construction on and
    each next one while the caller uses the one before.  A C-order draw of
    any shape is the same stream as flat draws, so the values do not depend
    on how they are taken or on the pool.
    """

    def __init__(self, rng: np.random.Generator, pool):
        buffers = (np.empty(_CHUNK_ELEMENTS) for _ in itertools.count())
        self.buffers = _threads.ahead(lambda out: rng.standard_normal(out=out), buffers, pool)
        self.buffer = np.empty(0)
        self.used = 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` values."""
        parts = []
        while n > self.buffer.size - self.used:
            if self.used < self.buffer.size:
                parts.append(self.buffer[self.used:])
                n -= self.buffer.size - self.used
            self.buffer, self.used = next(self.buffers), 0
        parts.append(self.buffer[self.used:self.used + n])
        self.used += n
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _RunMaxima:
    """Batched simulation of |z_t - mu_z| / sigma_z for seeded replications
    of an AR(1) with unit innovation variance.

    Each replication keeps only the records of its running maximum, as events
    (height, weight): a record at time t whose predecessor record came at
    time s has weight t - s at the predecessor's height (minus infinity for
    the first record), and the horizon H adds H - (time of the last record)
    at the current maximum.  A replication's run length at c, counted as H
    while no value beyond its horizon exceeds c, is then the total weight of
    its events at heights <= c.
    """

    def __init__(self, lam: float, phi: float, reps: int, seed: int, pool=None):
        unit = Ar1Model(0.0, phi, 1.0)
        sigma_z = math.sqrt(asymptotic_sigma_z2(lam, unit))
        # the AR(1)+EWMA cascade of the noise, in units of sigma_z
        self.coef = (lam / sigma_z, _accel.cascade(lam, phi))
        rng = make_rng(seed)
        # the AR(1) starts from its stationary law x_{-1} and the EWMA at the
        # chart center, which is the recurrence state (lam phi x_{-1} / sigma_z, 0)
        start = rng.standard_normal(reps)
        self.noise = _NormalStream(rng, pool)
        self.state = np.zeros((reps, 2))
        self.state[:, 0] = lam * phi * math.sqrt(unit.variance) / sigma_z * start
        self.peak = np.full(reps, -np.inf)
        self.last = np.zeros(reps, dtype=np.int64)
        self.horizon = np.zeros(reps, dtype=np.int64)
        self.steps = 0
        # record events, appended per chunk; weights and owners fit in
        # int32 because run lengths stay below RUN_LENGTH_CAP
        self.heights: list[np.ndarray] = []
        self.weights: list[np.ndarray] = []
        self.owners: list[np.ndarray] = []

    def extend(self, rows: np.ndarray, limit: int, stop: float) -> None:
        """Simulate the ``rows`` whose running maximum does not exceed ``stop``
        until each reaches ``limit`` steps or its running maximum exceeds
        ``stop``, block by block in chunks of at most _CHUNK_ELEMENTS values
        taken in order from the one noise stream."""
        edges = np.searchsorted(rows, np.arange(_CALIB_BLOCK, self.peak.size, _CALIB_BLOCK))
        for active in np.split(rows, edges):
            while True:
                active = active[(self.horizon[active] < limit) & (self.peak[active] <= stop)]
                if not active.size:
                    break
                remaining = int((limit - self.horizon[active]).min())
                steps = min(remaining, max(1, _CHUNK_ELEMENTS // active.size))
                noise = self.noise.take(active.size * steps).reshape(active.size, steps)
                self._advance(active, noise)

    def _deviations(self, rows: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """|z - mu_z| / sigma_z of ``rows`` over the next noise.shape[1] steps."""
        u, state = _accel.recurrence(*self.coef, noise, self.state[rows])
        self.state[rows] = state
        return np.abs(u, out=u)

    def _advance(self, rows: np.ndarray, noise: np.ndarray) -> None:
        dev = self._deviations(rows, noise)
        peak = self.peak[rows]
        running = np.maximum.accumulate(dev, axis=1)
        np.maximum(running, peak[:, None], out=running)
        is_record = np.empty(dev.shape, dtype=bool)
        np.greater(dev[:, 0], peak, out=is_record[:, 0])
        np.greater(dev[:, 1:], running[:, :-1], out=is_record[:, 1:])
        row, step = np.nonzero(is_record)
        if row.size:
            below = np.where(step > 0, running[row, step - 1], peak[row])
            time = self.horizon[rows[row]] + step + 1
            first = np.ones(row.size, dtype=bool)
            first[1:] = row[1:] != row[:-1]
            before = np.where(first, self.last[rows[row]], np.roll(time, 1))
            self.heights.append(below)
            self.weights.append((time - before).astype(np.int32))
            self.owners.append(rows[row].astype(np.int32))
            final = np.append(first[1:], True)
            self.last[rows[row[final]]] = time[final]
        self.peak[rows] = running[:, -1]
        self.horizon[rows] += noise.shape[1]
        self.steps += noise.size

    def events(self, top: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Events at heights <= ``top`` sorted by height: (heights, weights,
        owning replication)."""
        tails = np.flatnonzero(self.peak <= top)
        heights = np.concatenate([*self.heights, self.peak[tails]])
        weights = np.concatenate([*self.weights, self.horizon[tails] - self.last[tails]],
                                 dtype=np.int32)
        owners = np.concatenate([*self.owners, tails], dtype=np.int32)
        keep = np.flatnonzero(heights <= top)
        order = keep[np.argsort(heights[keep])]
        return heights[order], weights[order], owners[order]


def calibrate_c(
    lam: float,
    phi: float,
    target_arl: float,
    reps: int = 10**4,
    seed: int = 0,
) -> CalibrationResult:
    """Smallest c in _BRACKET whose simulated in-control ARL reaches the target.

    The limits are mu_z +/- c sigma_z and sigma_z scales with the innovation
    deviation, so c depends on lam and phi alone: the replications simulate
    an AR(1) with coefficient ``phi`` and unit innovation variance.  All
    replications share common random numbers across c: the AR(1)+EWMA
    path of a replication does not depend on c, so its run length at c is
    the first time the running maximum of |z - mu_z| / sigma_z exceeds c,
    and the Monte Carlo ARL is a non-decreasing step function of c that
    jumps only at the records of those running maxima.  Each path is one
    second-order linear filter of its noise (the AR(1) and the EWMA
    cascaded).  The search simulates every replication for a short first
    horizon, then repeatedly doubles the horizon of the runs whose maximum
    does not yet exceed the stop height, until the step function is exact
    up to that height.  The stop height is the current upper bound on the
    answer or, while it is lower, a provisional height: the quantile of the
    first-round maxima that a geometric run-length law with ARL
    _GUESS_MARGIN x target would put there.  The provisional height only
    spares runs that pass it from running on to the bound; if the exact
    ARL at it falls short of the target, the search drops it and goes on
    to the bound.
    Runs are censored at a cap of 100 target ARLs (at least 10 000 steps, at
    most RUN_LENGTH_CAP); ``censored`` counts those without a signal at c.
    It returns the smallest record height (or the bracket's lower end) at
    which the ARL reaches the target, with the ARL and its standard error at
    that c.  ``evaluations`` counts the simulation rounds and
    ``simulated_steps`` the noise values simulated.  Raises NonStationary
    for |phi| >= 1, and BracketFailure when the ARL at the bracket's lower
    end already exceeds the target or the ARL at its upper end falls short
    of it.
    The starting values come first from one generator of ``seed``, and then
    the noise, _CHUNK_ELEMENTS values at a time, taken by blocks of
    _CALIB_BLOCK replications in order.  When this process may use two CPUs
    and the first round draws at least 2 x _CHUNK_ELEMENTS values, one
    thread draws each buffer while the simulation uses the one before; the
    replications get the same noise as drawn inline, so the result does not
    depend on the thread, which is joined before this returns or raises.
    """
    lam = check_chart_settings(lam, target_arl, reps)
    lo, hi = _BRACKET
    # runs far beyond the target carry no information for calibration
    cap = min(RUN_LENGTH_CAP, max(10_000, int(100 * target_arl)))
    goal = target_arl * reps

    # a thread pays for itself once the first round draws two buffers; one
    # thread draws the stream's buffers in order
    with _threads.pool(1 if reps * _FIRST_HORIZON >= 2 * _CHUNK_ELEMENTS else 0) as pool:
        runs = _RunMaxima(lam, phi, reps, seed, pool)
        rows = np.arange(reps)
        limit = min(_FIRST_HORIZON, cap)
        bound = stop = guess = hi
        rounds = 0
        while rows.size:
            runs.extend(rows, limit, stop)
            rounds += 1
            heights, weights, owners = runs.events(bound)
            totals = np.cumsum(weights, dtype=np.int64)
            # totals[i] bounds reps * ARL(heights[i]) from below, counting a run
            # with no value above heights[i] at its horizon; it is exact up to
            # the smallest peak of a run that has not reached the cap
            first = np.searchsorted(totals, goal)
            reached = heights[first] if first < totals.size else math.inf
            bound = min(max(reached, lo), hi)
            if rounds == 1:
                # a share exp(-limit / ARL) of geometric run lengths outlast limit
                share = math.exp(-limit / (_GUESS_MARGIN * target_arl))
                k = int(share * (reps - 1))
                guess = float(np.partition(runs.peak, k)[k])
            unfinished = runs.horizon < cap
            rows = np.flatnonzero(unfinished & (runs.peak <= min(bound, guess)))
            if not rows.size and guess < bound:
                # the totals are exact up to the guess, and the answer lies above it
                guess = hi
                rows = np.flatnonzero(unfinished & (runs.peak <= bound))
            stop = min(bound, guess)
            limit = min(2 * limit, cap)

    def total_at(c: float) -> int:
        return int(totals[np.searchsorted(heights, c, side="right") - 1])

    if total_at(lo) > goal:
        raise BracketFailure(
            f"ARL at c={lo} is already {total_at(lo) / reps:.1f} > target {target_arl}"
        )
    if total_at(hi) < goal:
        raise BracketFailure(
            f"ARL at c={hi} is only {total_at(hi) / reps:.1f} < target {target_arl}"
        )
    c = max(float(reached), lo)
    upto = np.searchsorted(heights, c, side="right")
    lengths = np.bincount(owners[:upto], weights=weights[:upto], minlength=reps)
    se = float(lengths.std(ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf
    censored = int(np.count_nonzero(runs.peak <= c))
    return CalibrationResult(c, float(lengths.mean()), se, rounds, censored, runs.steps)
