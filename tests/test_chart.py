"""Modified EWMA chart: variance formula, AR(1) fit, run lengths, calibration."""

import math
import re
import sys
import threading

import numpy as np
import pytest
from scipy.stats import norm

from bfchart import _threads, chart
from bfchart.chart import (
    Ar1Model,
    ChartConfig,
    asymptotic_sigma_z2,
    calibrate_c,
    design_chart,
    estimate_arl,
    fit_ar1,
    run_chart,
)
from bfchart.exceptions import (
    BracketFailure,
    InvalidConfig,
    NonStationary,
    TooShort,
)
from bfchart.linalg import make_rng
from bfchart.simulate import gen_ar1


class TestAr1Model:
    def test_stationary_moments(self):
        ar = Ar1Model(intercept=0.5, phi=0.5, sigma2=3.0)
        assert ar.mean == pytest.approx(1.0)
        assert ar.variance == pytest.approx(4.0)

    def test_rejects_unit_root(self):
        with pytest.raises(NonStationary):
            Ar1Model(0.0, 1.0, 1.0)

    def test_rejects_bad_variance(self):
        with pytest.raises(InvalidConfig):
            Ar1Model(0.0, 0.5, 0.0)

    @pytest.mark.parametrize("fields", [(math.nan, 0.5, 1.0), (0.0, math.nan, 1.0),
                                        (0.0, 0.5, math.nan), (0.0, 0.5, math.inf),
                                        (math.inf, 0.5, 1.0)])
    def test_rejects_non_finite_fields(self, fields):
        with pytest.raises(InvalidConfig, match="finite"):
            Ar1Model(*fields)


class TestChartConfig:
    @pytest.mark.parametrize("field", ["c", "sigma_z", "mu_z"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, value):
        fields = {"lam": 0.05, "c": 2.5, "mu_z": 0.0, "sigma_z": 0.1, field: value}
        with pytest.raises(InvalidConfig, match="finite"):
            ChartConfig(**fields)


class TestEwmaUpdate:
    """Hand values of the step z = lam x + (1 - lam) z_prev, through run_chart
    with the chart center as z_prev of the first step."""

    def test_lambda_one_is_identity(self):
        cfg = ChartConfig(lam=1.0, c=3.0, mu_z=0.7, sigma_z=1.0)
        z, _ = run_chart([3.0, -1.5], cfg)
        assert z.tolist() == [3.0, -1.5]

    def test_hand_step(self):
        cfg = ChartConfig(lam=0.05, c=3.0, mu_z=0.2, sigma_z=1.0)
        z, _ = run_chart([1.0], cfg)
        assert z[0] == pytest.approx(0.24)

    def test_constant_fixed_point(self):
        cfg = ChartConfig(lam=0.3, c=3.0, mu_z=2.5, sigma_z=1.0)
        z, _ = run_chart(np.full(10, 2.5), cfg)
        np.testing.assert_allclose(z, 2.5)

    def test_rejects_bad_lambda(self):
        with pytest.raises(InvalidConfig):
            ChartConfig(lam=0.0, c=3.0, mu_z=0.0, sigma_z=1.0)


class TestAsymptoticSigmaZ2:
    def test_iid_reduction(self):
        lam = 0.3
        value = asymptotic_sigma_z2(lam, Ar1Model(0.0, 0.0, 2.0))
        assert value == pytest.approx(2.0 * lam / (2.0 - lam), abs=1e-14)

    def test_hand_evaluation(self):
        value = asymptotic_sigma_z2(0.05, Ar1Model(0.0, 0.1, 1.0))
        assert value == pytest.approx(0.0313377, abs=1e-6)

    def test_shewhart_reduction(self):
        assert asymptotic_sigma_z2(1.0, Ar1Model(0.0, 0.0, 4.0)) == pytest.approx(4.0)

    def test_matches_empirical_ewma_variance(self):
        lam = 0.05
        ar = Ar1Model(0.0, 0.1, 1.0)
        x = gen_ar1(ar, 10**5, make_rng(30))
        z = np.empty(len(x))
        prev = 0.0
        for t, value in enumerate(x):
            prev = lam * value + (1.0 - lam) * prev
            z[t] = prev
        empirical = float(np.var(z[1000:]))
        assert empirical == pytest.approx(asymptotic_sigma_z2(lam, ar), rel=0.05)


class TestFitAr1:
    def test_white_noise_coefficient_is_small(self):
        n = 10**4
        x = make_rng(31).standard_normal(n)
        ar = fit_ar1(x)
        assert abs(ar.phi) < 3.0 * 2.0 / np.sqrt(n)
        assert ar.sigma2 == pytest.approx(1.0, rel=0.05)

    def test_recovers_known_coefficient(self):
        x = gen_ar1(Ar1Model(0.0, 0.6, 1.0), 10**4, make_rng(32))
        ar = fit_ar1(x)
        assert 0.58 < ar.phi < 0.62

    def test_recovers_intercept(self):
        x = gen_ar1(Ar1Model(2.0, 0.3, 1.0), 10**4, make_rng(33))
        ar = fit_ar1(x)
        assert ar.mean == pytest.approx(2.0 / 0.7, abs=0.1)

    def test_deterministic_ramp_is_nonstationary(self):
        # an exact-fit unit root: x_t = x_{t-1} + 1
        with pytest.raises(NonStationary):
            fit_ar1(np.arange(12.0))

    def test_too_short(self):
        with pytest.raises(TooShort):
            fit_ar1([1.0, 2.0, 3.0])


class TestDesignChart:
    def test_hand_limits(self):
        cfg = design_chart(Ar1Model(0.0, 0.1, 1.0), lam=0.05, c=2.469)
        assert cfg.ucl == pytest.approx(0.437078, abs=1e-5)
        assert cfg.lcl == pytest.approx(-0.437078, abs=1e-5)

    def test_width_linear_in_c(self):
        ar = Ar1Model(0.0, 0.1, 1.0)
        one = design_chart(ar, 0.05, 1.5)
        two = design_chart(ar, 0.05, 3.0)
        assert two.ucl - two.lcl == pytest.approx(2.0 * (one.ucl - one.lcl))

    def test_center_shifts_limits(self):
        cfg = design_chart(Ar1Model(0.0, 0.0, 1.0), 0.1, 2.0, center=5.0)
        assert cfg.mu_z == 5.0
        assert cfg.ucl + cfg.lcl == pytest.approx(10.0)


class TestRunChart:
    def test_flat_input_never_signals(self):
        cfg = ChartConfig(lam=0.2, c=3.0, mu_z=1.0, sigma_z=0.5)
        z, out_of_control = run_chart(np.full(50, 1.0), cfg)
        assert z.shape == out_of_control.shape == (50,)
        assert not out_of_control.any()
        np.testing.assert_allclose(z, 1.0)

    def test_spike_signals_at_the_spike(self):
        cfg = ChartConfig(lam=0.5, c=3.0, mu_z=0.0, sigma_z=1.0)
        x = np.zeros(20)
        x[10] = 100.0
        _, out_of_control = run_chart(x, cfg)
        assert out_of_control[10]
        assert not out_of_control[:10].any()

    def test_empty_input(self):
        cfg = ChartConfig(lam=0.5, c=3.0, mu_z=0.0, sigma_z=1.0)
        z, out_of_control = run_chart([], cfg)
        assert z.shape == out_of_control.shape == (0,)
        assert z.dtype == float and out_of_control.dtype == bool

    def test_monitoring_continues_past_signals(self):
        cfg = ChartConfig(lam=1.0, c=1.0, mu_z=0.0, sigma_z=1.0)
        _, out_of_control = run_chart([5.0, 0.0, 5.0], cfg)
        assert out_of_control.tolist() == [True, False, True]


class TestSimulateRunLength:
    """Run lengths through ``estimate_arl``, one replication stream per (seed, rep)."""

    def test_huge_limits_hit_cap(self):
        cfg = ChartConfig(lam=0.5, c=1000.0, mu_z=0.0, sigma_z=1.0)
        # 5000 steps span three noise chunks, the last one cut short
        assert estimate_arl(cfg, Ar1Model(0.0, 0.0, 1.0), 3, seed=34, cap=5000) == (
            5000.0, 0.0, 3)

    def test_deterministic_per_seed(self):
        ar = Ar1Model(0.0, 0.1, 1.0)
        cfg = design_chart(ar, 0.05, 2.469)
        a = estimate_arl(cfg, ar, 20, seed=35)
        assert a == estimate_arl(cfg, ar, 20, seed=35)
        assert a != estimate_arl(cfg, ar, 20, seed=36)
        assert a[2] == 0

    def test_tight_limits_signal_fast(self):
        cfg = ChartConfig(lam=1.0, c=0.01, mu_z=0.0, sigma_z=1.0)
        mean, _, censored = estimate_arl(cfg, Ar1Model(0.0, 0.0, 1.0), 200, seed=36)
        assert censored == 0
        assert mean < 2.0


class TestCalibrateC:
    def test_shewhart_closed_form(self):
        result = calibrate_c(1.0, 0.0, 370.4, reps=10**4, seed=0)
        assert result.c == pytest.approx(3.00, abs=0.03)

    def test_larger_target_needs_larger_c(self):
        small = calibrate_c(1.0, 0.0, 100.0, reps=1000, seed=0)
        large = calibrate_c(1.0, 0.0, 500.0, reps=1000, seed=0)
        assert large.c > small.c

    def test_bracket_failure_low(self):
        with pytest.raises(BracketFailure):
            calibrate_c(1.0, 0.0, 1.1, reps=500, seed=0)

    def test_bracket_failure_high(self, monkeypatch):
        monkeypatch.setattr(chart, "_BRACKET", (0.5, 1.0))
        with pytest.raises(BracketFailure):
            calibrate_c(1.0, 0.0, 10**4, reps=500, seed=0)

    def test_invalid_target(self):
        with pytest.raises(InvalidConfig):
            calibrate_c(0.05, 0.0, 0.5)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_non_finite_target(self, target):
        with pytest.raises(InvalidConfig, match="finite"):
            calibrate_c(0.05, 0.0, target, reps=10)

    @pytest.mark.parametrize("target", [float(chart.RUN_LENGTH_CAP), 1e307])
    def test_target_at_or_above_the_run_length_cap(self, monkeypatch, target):
        # refused before any replication is simulated: every run would be
        # censored below the target, and 100 targets overflow an int
        def runs(*args):
            raise AssertionError("replications simulated before the target was checked")

        monkeypatch.setattr(chart, "_RunMaxima", runs)
        with pytest.raises(InvalidConfig, match=re.escape(
                f"target ARL must be below the run-length cap 10000000, got {target}")):
            calibrate_c(0.05, 0.0, target, reps=10)
        with pytest.raises(InvalidConfig, match="run-length cap"):
            chart.check_chart_settings(0.05, target, 10)

    def test_target_just_below_the_run_length_cap_is_accepted(self):
        assert chart.check_chart_settings(0.05, chart.RUN_LENGTH_CAP - 1.0, 10) == 0.05

    def test_non_finite_phi(self):
        with pytest.raises(InvalidConfig, match="finite"):
            calibrate_c(0.05, math.nan, 370.4, reps=10)

    def test_invalid_reps(self):
        with pytest.raises(InvalidConfig):
            calibrate_c(0.05, 0.0, 370.4, reps=0)

    @pytest.mark.parametrize("phi", [1.0, -1.0, 1.5])
    def test_rejects_unit_root(self, phi):
        with pytest.raises(NonStationary):
            calibrate_c(0.05, phi, 370.4, reps=100)

    def test_c_carries_over_to_any_variance_and_intercept(self):
        # c is calibrated on a unit-variance AR(1); the per-replication
        # estimator on an AR(1) with another variance and intercept, charted
        # around its stationary mean, reaches the same ARL at that c
        result = calibrate_c(0.1, 0.3, 50.0, reps=2000, seed=3)
        ar = Ar1Model(5.0, 0.3, 4.0)
        config = design_chart(ar, 0.1, result.c, center=ar.mean)
        mean, se, _ = estimate_arl(config, ar, 2000, seed=4)
        assert abs(mean - result.arl) <= 3.0 * math.hypot(se, result.arl_se)

    def test_repeat_calls_are_equal(self):
        first = calibrate_c(0.05, 0.1, 370.4, reps=500, seed=7)
        assert calibrate_c(0.05, 0.1, 370.4, reps=500, seed=7) == first

    def test_single_replication(self):
        result = calibrate_c(0.05, 0.1, 370.4, reps=1, seed=0)
        assert math.isfinite(result.c) and 0.5 <= result.c <= 6.0
        assert result.arl >= 370.4
        assert result.arl_se == math.inf

    def test_achieved_arl_reaches_target_and_matches_reference(self):
        # the reported ARL is the first value of the step function at or above
        # the target; the per-replication estimator on fresh streams agrees
        ar = Ar1Model(0.0, 0.1, 1.0)
        result = calibrate_c(0.05, ar.phi, 370.4, reps=2000, seed=3)
        assert 370.4 <= result.arl < 370.4 + 3.0 * result.arl_se
        assert result.censored == 0 and result.evaluations >= 1
        mean, se, _ = estimate_arl(design_chart(ar, 0.05, result.c), ar, 2000, seed=4)
        assert abs(mean - result.arl) <= 3.0 * math.hypot(se, result.arl_se)

    def test_censored_runs_are_counted(self, monkeypatch):
        # a cap near the target censors most runs; the per-replication
        # estimator at the calibrated c censors a similar share
        monkeypatch.setattr(chart, "RUN_LENGTH_CAP", 400)
        ar = Ar1Model(0.0, 0.0, 1.0)
        result = calibrate_c(1.0, ar.phi, 370.4, reps=2000, seed=0)
        assert 370.4 <= result.arl <= 400.0
        assert 0 < result.censored < 2000
        _, _, censored = estimate_arl(design_chart(ar, 1.0, result.c), ar, 2000,
                                      seed=1, cap=400)
        share = result.censored / 2000
        assert abs(censored / 2000 - share) <= 4.0 * math.sqrt(2 * share * (1 - share) / 2000)


    def test_simulated_steps_counts_the_noise(self, monkeypatch):
        seen = []
        advance = chart._RunMaxima._advance

        def spy(runs, rows, noise):
            seen.append(noise.size)
            advance(runs, rows, noise)

        monkeypatch.setattr(chart._RunMaxima, "_advance", spy)
        result = calibrate_c(0.05, 0.1, 370.4, reps=500, seed=7)
        assert result.simulated_steps == sum(seen) > 0

    def test_events_is_a_query(self):
        # asking for the events up to a lower height first leaves the stored
        # records whole: the events up to a higher one are a fresh copy's
        first, second = (chart._RunMaxima(0.1, 0.3, 200, 4) for _ in range(2))
        for runs in (first, second):
            runs.extend(np.arange(200), 512, 6.0)
        first.events(1.0)
        want = second.events(3.0)
        assert (want[0] > 1.0).any()
        for got, expected in zip(first.events(3.0), want):
            np.testing.assert_array_equal(got, expected)


class TestNoiseOnASecondCore:
    """With two CPUs the noise is drawn a buffer ahead on one worker thread;
    the replications get the same noise as drawn inline."""

    @pytest.fixture(params=[1, 2], ids=["inline", "worker"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(_threads, "usable_cpus", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("reps", [511, 512, 2500])
    def test_blocks_consume_their_streams_in_order(self, monkeypatch, cpus, reps):
        # 511 and 512 replications are one block and 2500 are three; the
        # worker runs once the first round draws two buffers, from 512.
        # The chunks take the seed's one stream in order, after the starting
        # values, and each holds the rows of one block
        consumed, blocks, threads = [], set(), set()
        advance = chart._RunMaxima._advance

        def spy(runs, rows, noise):
            block = int(rows[0]) // chart._CALIB_BLOCK
            assert int(rows[-1]) // chart._CALIB_BLOCK == block
            blocks.add(block)
            consumed.append(noise.ravel().copy())
            threads.update(threading.enumerate())
            advance(runs, rows, noise)

        monkeypatch.setattr(chart._RunMaxima, "_advance", spy)
        before = set(threading.enumerate())
        result = calibrate_c(0.05, 0.1, 370.4, reps=reps, seed=11)
        assert sorted(blocks) == list(range(-(-reps // chart._CALIB_BLOCK)))
        noise = np.concatenate(consumed)
        want = make_rng(11).standard_normal(reps + noise.size)[reps:]
        np.testing.assert_array_equal(noise, want)
        assert noise.size == result.simulated_steps
        gate = 2 * chart._CHUNK_ELEMENTS // chart._FIRST_HORIZON
        assert (threads > before) == (cpus > 1 and reps >= gate)

    @pytest.mark.parametrize("reps, want", [
        (2500, chart.CalibrationResult(2.4661996139053963, 370.6556, 7.233453898213151,
                                       5, 0, 1480087)),
        (1000, chart.CalibrationResult(2.4804359785326664, 370.824, 11.01774276699541,
                                       5, 0, 577729)),
        (1024, chart.CalibrationResult(2.480777909672926, 370.7275390625,
                                       11.097517016980866, 5, 0, 600330)),
    ])
    def test_results_are_pinned(self, cpus, reps, want):
        assert calibrate_c(0.05, 0.1, 370.4, reps=reps, seed=0) == want

    def test_pinned_under_fast_thread_switching(self, monkeypatch):
        # the interpreter switches threads every microsecond, so the worker's
        # draws interleave with the simulation as finely as they can
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = calibrate_c(0.05, 0.1, 370.4, reps=2500, seed=0)
        finally:
            sys.setswitchinterval(interval)
        assert (result.c, result.simulated_steps) == (2.4661996139053963, 1480087)

    def test_no_thread_outlives_a_call(self, cpus):
        before = threading.enumerate()
        calibrate_c(0.05, 0.1, 370.4, reps=2500, seed=0)
        assert threading.enumerate() == before

    def test_no_thread_outlives_a_bracket_failure(self, cpus):
        before = threading.enumerate()
        with pytest.raises(BracketFailure):
            calibrate_c(1.0, 0.0, 1.1, reps=2500, seed=0)
        assert threading.enumerate() == before

    def test_no_thread_outlives_an_error_in_the_search(self, monkeypatch, cpus):
        # an error while blocks still have draws in flight
        calls = []
        advance = chart._RunMaxima._advance

        def failing(runs, rows, noise):
            calls.append(threading.active_count())
            if len(calls) == 5:
                raise MemoryError("simulated")
            advance(runs, rows, noise)

        monkeypatch.setattr(chart._RunMaxima, "_advance", failing)
        before = threading.enumerate()
        with pytest.raises(MemoryError, match="simulated"):
            calibrate_c(0.05, 0.1, 370.4, reps=2500, seed=0)
        assert threading.enumerate() == before
        assert max(calls) == len(before) + (cpus > 1)


def cascade_loop(x0: float, noise: np.ndarray, ar: Ar1Model, lam: float) -> np.ndarray:
    """|z_t| / sigma_z for the AR(1) x_t = phi x_{t-1} + sigma nu_t from
    x_{-1} = x0, smoothed by z_t = lam x_t + (1 - lam) z_{t-1} from z_{-1} = 0,
    one step at a time."""
    sigma, sigma_z = math.sqrt(ar.sigma2), math.sqrt(asymptotic_sigma_z2(lam, ar))
    x, z = x0, 0.0
    out = np.empty(noise.size)
    for t, nu in enumerate(noise.tolist()):
        x = ar.phi * x + sigma * nu
        z = lam * x + (1.0 - lam) * z
        out[t] = abs(z) / sigma_z
    return out


class TestCalibrationIsExact:
    """calibrate_c against paths rebuilt from its own noise by a scalar loop.

    The margin of the provisional stop height is set so that the guess lies
    below the answer (the search must drop it), near it, and above it."""

    LAM, AR, TARGET, REPS, SEED = 0.1, Ar1Model(0.0, 0.3, 1.0), 100.0, 300, 5

    @pytest.mark.parametrize("margin", [1e-3, 1.25, 1e3])
    def test_answer_is_the_smallest_record_height_reaching_the_target(
        self, monkeypatch, margin
    ):
        monkeypatch.setattr(chart, "_GUESS_MARGIN", margin)
        noise = [[] for _ in range(self.REPS)]
        filtered = [[] for _ in range(self.REPS)]
        stops = []
        deviations, extend = chart._RunMaxima._deviations, chart._RunMaxima.extend

        def spy_deviations(runs, rows, chunk):
            dev = deviations(runs, rows, chunk)
            for k, row in enumerate(rows.tolist()):
                noise[row].append(chunk[k].copy())
                filtered[row].append(dev[k].copy())
            return dev

        def spy_extend(runs, rows, limit, stop):
            stops.append(stop)
            extend(runs, rows, limit, stop)

        monkeypatch.setattr(chart._RunMaxima, "_deviations", spy_deviations)
        monkeypatch.setattr(chart._RunMaxima, "extend", spy_extend)
        result = calibrate_c(self.LAM, self.AR.phi, self.TARGET, reps=self.REPS,
                             seed=self.SEED)

        # the stationary starting values come first from the seed's stream
        start = make_rng(self.SEED).standard_normal(self.REPS)
        x0 = math.sqrt(self.AR.variance) * start
        paths = [cascade_loop(x0[r], np.concatenate(noise[r]), self.AR, self.LAM)
                 for r in range(self.REPS)]
        for r in range(self.REPS):
            np.testing.assert_allclose(np.concatenate(filtered[r]), paths[r],
                                       rtol=1e-12, atol=1e-12)

        cap = max(10_000, int(100 * self.TARGET))

        def arl(c):
            lengths = []
            for path in paths:
                above = np.flatnonzero(path > c)
                if above.size:
                    lengths.append(above[0] + 1)
                else:
                    assert path.size == cap, "a run below c stopped short of the cap"
                    lengths.append(cap)
            return float(np.mean(lengths))

        records = np.concatenate([
            path[np.r_[True, path[1:] > np.maximum.accumulate(path)[:-1]]]
            for path in paths
        ])
        c = records[np.argmin(np.abs(records - result.c))]
        assert c == pytest.approx(result.c, rel=1e-12) and c > 0.5
        assert arl(c) == result.arl >= self.TARGET
        assert arl(records[records < c].max()) < self.TARGET
        assert result.simulated_steps == sum(path.size for path in paths)
        if margin < 1.0:
            assert min(stops) < result.c  # the guess was too low and dropped
        if margin > 100.0:
            assert min(stops) >= result.c


def brook_evans_arl(lam: float, c: float, states: int) -> float:
    """In-control ARL of the EWMA of iid N(0, 1) data with limits +/- c sigma_z,
    started at 0, by the Markov chain of Brook & Evans (1972): the in-control
    interval is cut into ``states`` equal cells (odd, so that 0 is a midpoint)
    and each cell is represented by its midpoint (Lucas & Saccucci, 1990)."""
    half = c * math.sqrt(lam / (2.0 - lam))
    width = 2.0 * half / states
    mid = -half + (np.arange(states) + 0.5) * width
    mean = (1.0 - lam) * mid[:, None]
    q = (norm.cdf((mid[None, :] + 0.5 * width - mean) / lam)
         - norm.cdf((mid[None, :] - 0.5 * width - mean) / lam))
    arl = np.linalg.solve(np.eye(states) - q, np.ones(states))
    return float(arl[states // 2])


class TestBrookEvansOracle:
    def test_chain_reproduces_shewhart_closed_form(self):
        assert brook_evans_arl(1.0, 3.0, 201) == pytest.approx(
            1.0 / (2.0 * norm.cdf(-3.0)), rel=1e-9
        )

    def test_chain_is_converged_in_the_state_count(self):
        assert abs(brook_evans_arl(0.05, 2.486, 401)
                   - brook_evans_arl(0.05, 2.486, 801)) < 0.1

    def test_calibrated_c_has_the_target_chain_arl(self):
        result = calibrate_c(0.05, 0.0, 370.4, reps=10_000, seed=0)
        assert abs(brook_evans_arl(0.05, result.c, 401) - 370.4) <= 3.0 * result.arl_se
