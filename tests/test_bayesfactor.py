"""Log Bayes factor of predictive vs target error density."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from bfchart.bayesfactor import TargetSpec, lbf, lbf_series
from bfchart.dwr import DwrConfig, FilterState, init
from bfchart.exceptions import (
    CovarianceNotReady,
    DimensionMismatch,
    NotPositiveDefinite,
)
from bfchart.linalg import make_rng


def scalar_state(delta, p_scale, s, m=0.0, t=5):
    return FilterState(
        delta=delta,
        t=t,
        m=np.atleast_1d(np.asarray(m, dtype=float)),
        P=p_scale,
        sum_outer=np.atleast_2d(np.asarray(s, dtype=float)) * t,
    )


def random_state_and_target(rng, p):
    a = rng.standard_normal((p, p))
    s = a @ a.T + 0.5 * np.eye(p)
    b = rng.standard_normal((p, p))
    v = b @ b.T + 0.5 * np.eye(p)
    state = FilterState(
        delta=rng.uniform(0.2, 1.0),
        t=7,
        m=rng.standard_normal(p),
        P=rng.uniform(0.05, 1.5),
        sum_outer=s * 7,
    )
    target = TargetSpec(mu=rng.standard_normal(p), V=v)
    return state, target


def oracle_lbf(y, state, target):
    """Direct two-density log ratio via scipy's multivariate normal."""
    pred_cov = (state.delta + state.P) * state.S / state.delta
    log_pred = multivariate_normal.logpdf(y, mean=state.m, cov=pred_cov)
    log_target = multivariate_normal.logpdf(y, mean=target.mu, cov=target.V)
    return log_pred - log_target


class TestTargetSpec:
    def test_caches_determinant(self):
        target = TargetSpec(mu=[0.0, 0.0], V=[[1.0, 2.0], [2.0, 5.0]])
        assert target.logdet == pytest.approx(0.0, abs=1e-12)
        assert target.dim == 2

    def test_rejects_mean_mismatch(self):
        with pytest.raises(DimensionMismatch):
            TargetSpec(mu=[0.0], V=np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            TargetSpec(mu=[0.0, 0.0], V=[[1.0, 2.0], [2.0, 1.0]])

    def test_holds_read_only_copies(self):
        # an edited V would keep its stale cached factor and score wrongly
        mu, v = np.zeros(2), np.eye(2)
        target = TargetSpec(mu=mu, V=v)
        for a in (target.mu, target.V, target.chol):
            with pytest.raises(ValueError, match="read-only"):
                a[0] += 1.0
        mu[0] = v[0, 0] = 2.0  # the caller's arrays stay its own
        assert target.mu[0] == 0.0 and target.V[0, 0] == 1.0


class TestLbf:
    def test_hand_case(self):
        state = scalar_state(delta=0.9, p_scale=0.1, s=1.0)
        target = TargetSpec(mu=[0.0], V=[[1.0]])
        value = lbf([1.0], state, target)
        assert value == pytest.approx(0.5 * math.log(0.9) + 0.05, abs=1e-12)
        assert value == pytest.approx(-0.0026803, abs=1e-7)

    def test_zero_when_densities_coincide(self):
        # S = delta V / (delta + P) and m = mu make the predictive density
        # exactly the target density, so the log ratio vanishes
        rng = make_rng(2)
        for _ in range(20):
            p = int(rng.integers(1, 5))
            a = rng.standard_normal((p, p))
            v = a @ a.T + 0.5 * np.eye(p)
            mu = rng.standard_normal(p)
            delta = rng.uniform(0.2, 1.0)
            p_scale = rng.uniform(0.05, 1.5)
            state = FilterState(
                delta=delta, t=3, m=mu.copy(), P=p_scale,
                sum_outer=3 * delta * v / (delta + p_scale),
            )
            target = TargetSpec(mu=mu, V=v)
            y = rng.standard_normal(p)
            assert abs(lbf(y, state, target)) < 1e-10

    def test_matches_density_ratio_oracle(self):
        rng = make_rng(3)
        for _ in range(200):
            p = int(rng.integers(1, 5))
            state, target = random_state_and_target(rng, p)
            y = rng.standard_normal(p) * 3.0
            value = lbf(y, state, target)
            expected = oracle_lbf(y, state, target)
            assert value == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_invariant_under_coordinate_permutation(self):
        rng = make_rng(4)
        state, target = random_state_and_target(rng, 4)
        y = rng.standard_normal(4)
        perm = np.array([2, 0, 3, 1])
        permuted_state = FilterState(
            delta=state.delta,
            t=state.t,
            m=state.m[perm],
            P=state.P,
            sum_outer=state.sum_outer[np.ix_(perm, perm)],
        )
        permuted_target = TargetSpec(
            mu=target.mu[perm], V=target.V[np.ix_(perm, perm)]
        )
        assert lbf(y[perm], permuted_state, permuted_target) == pytest.approx(
            lbf(y, state, target), abs=1e-10
        )

    def test_refuses_cold_state(self):
        with pytest.raises(CovarianceNotReady) as err:
            lbf([0.0], init(DwrConfig(dim=1, delta=0.9)), TargetSpec([0.0], [[1.0]]))
        assert err.value.t == 0

    @pytest.mark.parametrize("bad", [1e-3, np.nan])
    def test_refuses_asymmetric_or_non_finite_state(self, bad):
        # the lower triangle alone is positive definite; a Cholesky of it
        # would score silently
        state = scalar_state(0.9, 0.1, [[2.0, 0.5 + bad], [0.5, 1.0]], m=[0.0, 0.0])
        with pytest.raises(CovarianceNotReady, match="at t=5"):
            lbf([0.1, 0.2], state, TargetSpec([0.0, 0.0], np.eye(2)))

    def test_rejects_observation_mismatch(self):
        state = scalar_state(0.9, 0.1, 1.0)
        with pytest.raises(DimensionMismatch):
            lbf([0.0, 0.0], state, TargetSpec([0.0], [[1.0]]))


class TestLbfSeries:
    def test_empty_input(self):
        state = scalar_state(0.9, 0.1, 1.0)
        out = lbf_series([], state, TargetSpec([0.0], [[1.0]]))
        assert out.shape == (0,)
        assert state.t == 5

    def test_alignment_and_state_advance(self):
        rng = make_rng(5)
        state, target = random_state_and_target(rng, 2)
        t0 = state.t
        data = rng.standard_normal((17, 2))
        out = lbf_series(data, state, target)
        assert out.shape == (17,)
        assert state.t == t0 + 17

    def test_scores_before_stepping(self):
        rng = make_rng(6)
        state, target = random_state_and_target(rng, 2)
        data = rng.standard_normal((5, 2))
        expected = []
        shadow = state.copy()
        for row in data:
            expected.append(lbf(row, shadow, target))
            shadow.step(row)
        np.testing.assert_allclose(lbf_series(data, state, target), expected)

    def test_in_control_study_is_roughly_symmetric(self):
        from bfchart.diagnostics import skewness
        from bfchart.simulate import scenario_lbf_study

        study = scenario_lbf_study(n=1000, warmup=100, delta=0.9, seed=0)
        assert abs(skewness(study["in_control"])) < 0.5

    @settings(max_examples=25, deadline=None)
    @given(split=st.integers(min_value=0, max_value=60))
    def test_two_chunks_equal_one_pass(self, split):
        rng = make_rng(7)
        state, target = random_state_and_target(rng, 3)
        data = rng.standard_normal((60, 3))
        whole_state = state.copy()
        whole = lbf_series(data, whole_state, target)
        parts = np.concatenate([lbf_series(data[:split], state, target),
                                lbf_series(data[split:], state, target)])
        np.testing.assert_allclose(parts, whole, rtol=1e-12, atol=1e-12)
        assert state.t == whole_state.t
        np.testing.assert_allclose(state.m, whole_state.m, rtol=1e-12, atol=1e-12)
        assert state.P == whole_state.P
        np.testing.assert_allclose(state.sum_outer, whole_state.sum_outer,
                                   rtol=1e-12, atol=1e-12)

    def test_cold_state_is_refused_and_left_unchanged(self):
        state = scalar_state(0.9, 0.1, [[1.0, 2.0], [2.0, 1.0]], m=[0.0, 0.0], t=4)
        before = state.copy()
        with pytest.raises(CovarianceNotReady, match="at t=4"):
            lbf_series(make_rng(8).standard_normal((5, 2)), state,
                       TargetSpec([0.0, 0.0], np.eye(2)))
        assert state.t == before.t
        np.testing.assert_array_equal(state.m, before.m)
        np.testing.assert_array_equal(state.sum_outer, before.sum_outer)

    def test_asymmetric_state_is_refused_and_left_unchanged(self):
        state = scalar_state(0.9, 0.1, [[2.0, 0.501], [0.5, 1.0]], m=[0.0, 0.0], t=4)
        before = state.copy()
        with pytest.raises(CovarianceNotReady, match="at t=4") as err:
            lbf_series(make_rng(8).standard_normal((5, 2)), state,
                       TargetSpec([0.0, 0.0], np.eye(2)))
        assert err.value.t == state.t
        assert state.t == before.t
        np.testing.assert_array_equal(state.sum_outer, before.sum_outer)

    def test_rounding_asymmetry_is_not_carried_forward(self):
        # asymmetry within linalg.SYM_ATOL is accepted and symmetrized once
        state = scalar_state(0.9, 0.1, [[2.0, 0.5 + 1e-12], [0.5, 1.0]],
                             m=[0.0, 0.0], t=4)
        lbf_series(make_rng(9).standard_normal((5, 2)), state,
                   TargetSpec([0.0, 0.0], np.eye(2)))
        np.testing.assert_array_equal(state.sum_outer, state.sum_outer.T)
