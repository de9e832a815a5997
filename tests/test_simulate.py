"""Scenario generators and the four-panel log-Bayes-factor study."""

import numpy as np
import pytest

from bfchart.chart import Ar1Model
from bfchart.diagnostics import lag1_autocorr
from bfchart.dwr import DwrConfig, steady_state_scale
from bfchart.exceptions import DimensionMismatch, InvalidConfig
from bfchart.linalg import make_rng
from bfchart.simulate import (
    SCENARIO_NAMES,
    Scenario,
    gen_ar1,
    gen_iid,
    gen_local_level,
    level_noise_scale,
    reference_scenarios,
    scenario_lbf_study,
)


class TestReferenceScenarios:
    def test_in_control_values(self):
        s = reference_scenarios()["in_control"]
        np.testing.assert_array_equal(s.mu, [0.0, 0.0])
        np.testing.assert_array_equal(s.cov, [[1.0, 2.0], [2.0, 5.0]])

    def test_mean_shift_values(self):
        s = reference_scenarios()["mean_shift"]
        np.testing.assert_array_equal(s.mu, [0.5, 0.0])
        np.testing.assert_array_equal(s.cov, [[1.0, 2.0], [2.0, 5.0]])

    def test_cov_shift_values(self):
        s = reference_scenarios()["cov_shift"]
        np.testing.assert_array_equal(s.mu, [0.0, 0.0])
        np.testing.assert_array_equal(s.cov, [[1.0, 2.5], [2.5, 8.0]])

    def test_both_shift_values(self):
        s = reference_scenarios()["both_shift"]
        np.testing.assert_array_equal(s.mu, [0.5, 0.0])
        np.testing.assert_array_equal(s.cov, [[1.0, 2.5], [2.5, 8.0]])

    def test_all_names_present(self):
        assert tuple(reference_scenarios()) == SCENARIO_NAMES

    def test_scenario_validates_shapes(self):
        with pytest.raises(DimensionMismatch):
            Scenario("bad", [0.0], np.eye(2))


class TestGenIid:
    def test_sample_mean_bound(self):
        s = reference_scenarios()["in_control"]
        draws = gen_iid(s, 1000, make_rng(40))
        assert np.all(np.abs(draws.mean(axis=0)) < 0.15)

    def test_deterministic_per_seed(self):
        s = reference_scenarios()["in_control"]
        np.testing.assert_array_equal(
            gen_iid(s, 50, make_rng(41)), gen_iid(s, 50, make_rng(41))
        )

    def test_rejects_empty(self):
        with pytest.raises((InvalidConfig, DimensionMismatch)):
            gen_iid(reference_scenarios()["in_control"], 0, make_rng(0))


class TestLevelNoiseScale:
    def test_closed_form(self):
        for delta in (0.2, 0.5, 0.9):
            p_lim = steady_state_scale(delta)
            assert level_noise_scale(delta) == pytest.approx(
                p_lim**4 / (1.0 - p_lim**2)
            )

    def test_makes_filter_errors_white(self):
        # the whole point of the chosen scale: one-step errors of the
        # matched filter carry no serial correlation
        config = DwrConfig(dim=2, delta=0.7)
        sigma = np.array([[1.0, 2.0], [2.0, 5.0]])
        data = gen_local_level(config, sigma, 4000, make_rng(42))
        from bfchart.dwr import run_filter

        path = run_filter(config, data)
        for coord in range(2):
            assert abs(lag1_autocorr(path.errors[100:, coord])) < 0.08


class TestGenLocalLevel:
    def test_shape_and_determinism(self):
        config = DwrConfig(dim=3, delta=0.8)
        a = gen_local_level(config, np.eye(3), 25, make_rng(43))
        b = gen_local_level(config, np.eye(3), 25, make_rng(43))
        assert a.shape == (25, 3)
        np.testing.assert_array_equal(a, b)

    def test_rejects_empty(self):
        with pytest.raises(InvalidConfig):
            gen_local_level(DwrConfig(dim=1, delta=0.5), [[1.0]], 0, make_rng(0))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gen_local_level(DwrConfig(dim=2, delta=0.5), np.eye(3), 10, make_rng(0))

    def test_starts_near_prior_mean(self):
        # the walk starts from the filter's zero prior mean: the first row is
        # one walk step plus noise, N(0, (1 + q) Sigma)
        config = DwrConfig(dim=1, delta=0.9)
        first = [gen_local_level(config, [[4.0]], 5, make_rng(44, k))[0, 0]
                 for k in range(400)]
        sd = 2.0 * np.sqrt(1.0 + level_noise_scale(0.9))
        assert abs(np.mean(first)) < 4.0 * sd / np.sqrt(400)
        assert np.std(first) == pytest.approx(sd, rel=0.15)


def gen_ar1_loop(ar, n, rng):
    """The AR(1) recursion one value at a time, drawing as gen_ar1 does."""
    x = ar.mean + np.sqrt(ar.variance) * rng.standard_normal()
    noise = np.sqrt(ar.sigma2) * rng.standard_normal(n)
    out = np.empty(n)
    for t in range(n):
        x = ar.intercept + ar.phi * x + noise[t]
        out[t] = x
    return out


class TestGenAr1:
    @pytest.mark.parametrize("ar", [Ar1Model(0.0, 0.0, 4.0), Ar1Model(0.1, 0.3, 1.0),
                                    Ar1Model(-2.0, -0.95, 0.5),
                                    Ar1Model(5.0, 0.99, 2.0)])
    @pytest.mark.parametrize("n", [1, 2, 500])
    def test_matches_scalar_loop(self, ar, n):
        np.testing.assert_allclose(gen_ar1(ar, n, make_rng(48)),
                                   gen_ar1_loop(ar, n, make_rng(48)),
                                   rtol=1e-12, atol=0)

    def test_white_noise_reduction(self):
        x = gen_ar1(Ar1Model(0.0, 0.0, 4.0), 10**4, make_rng(45))
        assert np.var(x) == pytest.approx(4.0, rel=0.1)
        assert abs(lag1_autocorr(x)) < 0.03

    def test_persistence_recovered(self):
        x = gen_ar1(Ar1Model(0.0, 0.6, 1.0), 10**4, make_rng(46))
        assert lag1_autocorr(x) == pytest.approx(0.6, abs=0.03)

    def test_deterministic_per_seed(self):
        ar = Ar1Model(0.1, 0.3, 1.0)
        np.testing.assert_array_equal(
            gen_ar1(ar, 20, make_rng(47)), gen_ar1(ar, 20, make_rng(47))
        )

    def test_rejects_empty(self):
        with pytest.raises(InvalidConfig):
            gen_ar1(Ar1Model(0.0, 0.0, 1.0), 0, make_rng(0))


class TestScenarioLbfStudy:
    def test_keys_and_lengths(self):
        study = scenario_lbf_study(n=120, warmup=100, delta=0.9, seed=0)
        assert tuple(study) == SCENARIO_NAMES
        assert all(len(v) == 120 for v in study.values())
        assert all(np.all(np.isfinite(v)) for v in study.values())

    def test_deterministic_per_seed(self):
        a = scenario_lbf_study(n=60, warmup=100, delta=0.9, seed=5)
        b = scenario_lbf_study(n=60, warmup=100, delta=0.9, seed=5)
        for name in SCENARIO_NAMES:
            np.testing.assert_array_equal(a[name], b[name])

    def test_out_of_control_scenarios_lift_the_mean(self):
        study = scenario_lbf_study(n=500, warmup=100, delta=0.9, seed=1)
        base = study["in_control"].mean()
        for name in ("mean_shift", "cov_shift", "both_shift"):
            assert study[name].mean() > base
