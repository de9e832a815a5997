"""Discount local-level filter: recursions, limits, vectorized path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfchart import dwr
from bfchart.bayesfactor import TargetSpec, lbf_series, lbf_terms
from bfchart.dwr import (
    DEFAULT_PRIOR_SCALE,
    DwrConfig,
    FilterState,
    filter_path,
    init,
    run_filter,
    scale_sequence,
    steady_state_scale,
)
from bfchart.exceptions import (
    CovarianceNotReady,
    DimensionMismatch,
    InvalidConfig,
)
from bfchart.linalg import make_rng


class TestConfig:
    def test_construction(self):
        state = init(DwrConfig(dim=2, delta=0.5))
        assert state.P == DEFAULT_PRIOR_SCALE == 0.001
        assert state.t == 0
        np.testing.assert_array_equal(state.m, np.zeros(2))

    def test_delta_zero_rejected(self):
        with pytest.raises(InvalidConfig):
            DwrConfig(dim=2, delta=0.0)

    def test_delta_above_one_rejected(self):
        with pytest.raises(InvalidConfig):
            DwrConfig(dim=2, delta=1.2)

    def test_delta_one_allowed(self):
        assert DwrConfig(dim=1, delta=1.0).delta == 1.0

    def test_bad_dim_rejected(self):
        with pytest.raises(InvalidConfig):
            DwrConfig(dim=0, delta=0.5)



class TestStep:
    def test_zero_observation(self):
        state = FilterState(delta=1.0, t=0, m=np.zeros(1), P=1.0,
                            sum_outer=np.zeros((1, 1)))
        e = state.step([0.0])
        assert e == pytest.approx(0.0)
        assert state.m[0] == 0.0
        assert state.P == pytest.approx(0.5)
        assert state.S[0, 0] == 0.0

    def test_hand_recursion(self):
        state = FilterState(delta=0.5, t=0, m=np.zeros(1), P=0.001,
                            sum_outer=np.zeros((1, 1)))
        e = state.step([2.0])
        assert e[0] == pytest.approx(2.0)
        assert state.m[0] == pytest.approx(0.002 / 0.501, abs=1e-12)
        assert state.P == pytest.approx(1.0 / 0.501, abs=1e-12)
        assert state.S[0, 0] == pytest.approx(0.5 * 4.0 / 0.501, abs=1e-12)
        assert state.t == 1

    def test_dimension_mismatch(self):
        state = init(DwrConfig(dim=2, delta=0.5))
        with pytest.raises(DimensionMismatch):
            state.step([1.0, 2.0, 3.0])

    def test_copy_is_independent(self):
        state = init(DwrConfig(dim=1, delta=0.5))
        clone = state.copy()
        state.step([1.0])
        assert clone.t == 0
        assert clone.P != state.P

    def test_sum_outer_stays_symmetric(self):
        state = init(DwrConfig(dim=3, delta=0.7))
        rng = make_rng(4)
        for _ in range(50):
            state.step(rng.standard_normal(3))
        np.testing.assert_array_equal(state.sum_outer, state.sum_outer.T)


class TestForecastErrorDensity:
    """N(m, (delta + P) S / delta), as it enters the log Bayes factor."""

    def test_hand_case(self):
        state = FilterState(
            delta=0.9, t=5, m=np.zeros(1), P=0.1, sum_outer=np.full((1, 1), 5.0)
        )
        # variance 1 / 0.9 against a N(0, 1) target: at y = 1 the log ratio
        # is log(0.9) / 2 - 0.9 / 2 + 1 / 2
        value = lbf_terms([1.0], state.m, state.P, state.S, state.delta,
                          TargetSpec([0.0], [[1.0]]))
        assert value == pytest.approx(0.5 * math.log(0.9) + 0.05, abs=1e-12)

    def test_steady_state_closed_form(self):
        sigma = np.array([[1.0, 2.0], [2.0, 5.0]])
        p_lim = steady_state_scale(1.0)
        state = FilterState(
            delta=1.0, t=10, m=np.zeros(2), P=p_lim, sum_outer=sigma * 10
        )
        # the density equals a N(0, (1 + P) Sigma) target, so every y scores 0
        target = TargetSpec(np.zeros(2), (1.0 + p_lim) * sigma)
        for y in ([0.0, 0.0], [1.5, -2.0], [-3.0, 4.0]):
            value = lbf_terms(y, state.m, state.P, state.S, state.delta, target)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_refuses_before_first_observation(self):
        with pytest.raises(CovarianceNotReady):
            lbf_series([[0.0, 0.0]], init(DwrConfig(dim=2, delta=0.9)),
                       TargetSpec(np.zeros(2), np.eye(2)))

    def test_refuses_singular_estimate(self):
        state = init(DwrConfig(dim=2, delta=0.9))
        state.step([0.0, 0.0])  # zero error leaves the estimate all zero
        with pytest.raises(CovarianceNotReady):
            lbf_series([[0.0, 0.0]], state, TargetSpec(np.zeros(2), np.eye(2)))


class TestSteadyStateScale:
    def test_delta_one(self):
        assert steady_state_scale(1.0) == pytest.approx(0.6180340, abs=1e-7)

    def test_delta_point_two(self):
        assert steady_state_scale(0.2) == pytest.approx(0.9049876, abs=1e-7)

    def test_invalid_delta(self):
        with pytest.raises(InvalidConfig):
            steady_state_scale(0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 1.0))
    def test_fixed_point_property(self, delta):
        p_lim = steady_state_scale(delta)
        assert 1.0 / (delta + p_lim) == pytest.approx(p_lim, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(1e-4, 5.0))
    def test_recursion_converges_to_limit(self, delta, p0):
        seq = scale_sequence(delta, p0=p0, n=500)
        assert abs(seq[-1] - steady_state_scale(delta)) < 1e-8


class TestScaleSequence:
    def test_matches_stepwise_filter(self):
        state = init(DwrConfig(dim=1, delta=0.6))
        expected = []
        for _ in range(20):
            state.step([0.3])  # P does not depend on the data
            expected.append(state.P)
        np.testing.assert_allclose(scale_sequence(0.6, 0.001, 20), expected)

    def test_rejects_bad_prior(self):
        with pytest.raises(InvalidConfig):
            scale_sequence(0.5, p0=-1.0)

    @pytest.mark.parametrize("delta", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 0.37])
    @pytest.mark.parametrize("p0", [1e-3, 1.0, 100.0])
    def test_repeating_tail_is_the_recursion(self, delta, p0):
        # the sequence stops early once it repeats; every value is the loop's
        n = 10**5
        full = np.empty(n)
        scale = p0
        for t in range(n):
            scale = 1.0 / (delta + scale)
            full[t] = scale
        for size in (0, 1, 2, 3, 4, 5, 50, 361, 362, 999, n):
            assert scale_sequence(delta, p0, size).tobytes() == full[:size].tobytes()


class TestRunFilter:
    def _oracle(self, config, data):
        state = init(config)
        errors, m_pre, p_pre, s_post = [], [], [], []
        for row in data:
            m_pre.append(state.m.copy())
            p_pre.append(state.P)
            errors.append(state.step(row))
            s_post.append(state.S.copy())
        return np.array(errors), np.array(m_pre), np.array(p_pre), np.array(s_post)

    def test_matches_stepwise_oracle(self):
        config = DwrConfig(dim=2, delta=0.8)
        data = make_rng(9).standard_normal((40, 2))
        path = run_filter(config, data)
        e, m_pre, p_pre, s_post = self._oracle(config, data)
        np.testing.assert_allclose(path.errors, e, atol=1e-12)
        np.testing.assert_allclose(path.m_pre, m_pre, atol=1e-12)
        np.testing.assert_allclose(path.p_pre, p_pre, atol=1e-12)
        np.testing.assert_allclose(path.s_post, s_post, atol=1e-12)
        np.testing.assert_array_equal(path.s_pre[0], np.zeros((2, 2)))
        np.testing.assert_allclose(path.s_pre[1:], s_post[:-1], atol=1e-12)
        np.testing.assert_allclose(path.final.m, (m_pre[-1] * 0 + path.final.m))
        assert path.final.t == 40

    def test_final_state_continues_consistently(self):
        config = DwrConfig(dim=2, delta=0.7)
        data = make_rng(10).standard_normal((30, 2))
        full = run_filter(config, data)
        head = run_filter(config, data[:20])
        state = head.final
        for row in data[20:]:
            state.step(row)
        np.testing.assert_allclose(state.m, full.final.m, atol=1e-12)
        assert state.P == pytest.approx(full.final.P, abs=1e-14)
        np.testing.assert_allclose(state.S, full.final.S, atol=1e-12)

    def test_one_dimensional_input_accepted(self):
        path = run_filter(DwrConfig(dim=1, delta=0.5), [1.0, 2.0, 3.0])
        assert path.errors.shape == (3, 1)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            run_filter(DwrConfig(dim=3, delta=0.5), np.ones((5, 2)))

    def test_warmup_is_first_solid_spd_index(self):
        config = DwrConfig(dim=2, delta=0.9)
        data = make_rng(13).standard_normal((50, 2))
        path = run_filter(config, data)
        w = path.warmup
        assert w is not None and w >= 2  # rank p needs at least p updates
        eigenvalues = np.linalg.eigvalsh(path.s_pre[w])
        assert eigenvalues[0] > 0

    def test_warmup_none_for_degenerate_data(self):
        # identical rows keep every outer product rank deficient
        path = run_filter(DwrConfig(dim=2, delta=0.9), np.ones((20, 2)))
        assert path.warmup is None

    @pytest.mark.parametrize("delta", [0.1, 0.5, 0.9, 1.0])
    def test_matches_step_loop_through_the_settled_tail(self, delta):
        # within 600 steps P_t reaches an exact fixed point (delta 0.9, 1.0)
        # or a two-cycle one ulp wide (0.1, 0.5); the kernel switches to a
        # constant gain there
        config = DwrConfig(dim=3, delta=delta)
        data = (make_rng(14).standard_normal((600, 3))
                + np.linspace(0.0, 5.0, 600)[:, None])
        path = run_filter(config, data)
        e, m_pre, p_pre, s_post = self._oracle(config, data)
        np.testing.assert_allclose(path.errors, e, rtol=0, atol=1e-12)
        np.testing.assert_allclose(path.m_pre, m_pre, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(path.p_pre, p_pre)
        np.testing.assert_allclose(path.s_post, s_post, rtol=0, atol=1e-12)
        state = init(config)
        for row in data:
            state.step(row)
        np.testing.assert_allclose(path.final.m, state.m, rtol=0, atol=1e-12)
        assert path.final.P == state.P
        np.testing.assert_allclose(path.final.sum_outer, state.sum_outer,
                                   rtol=0, atol=1e-12)

    def _assert_matches_steps(self, data, start):
        path = filter_path(data, start)
        state = start.copy()
        for k, row in enumerate(data):
            np.testing.assert_allclose(path.m_pre[k], state.m, rtol=0, atol=1e-12)
            assert path.p_pre[k] == state.P
            np.testing.assert_allclose(path.errors[k], state.step(row), rtol=0, atol=1e-12)
            np.testing.assert_allclose(path.s_post[k], state.S, rtol=0, atol=1e-12)
        assert (path.final.delta, path.final.t) == (state.delta, state.t)
        np.testing.assert_allclose(path.final.m, state.m, rtol=0, atol=1e-12)
        assert path.final.P == state.P
        np.testing.assert_allclose(path.final.sum_outer, state.sum_outer, rtol=0, atol=1e-12)
        return path

    @pytest.mark.parametrize("delta,n", [(0.01, 2000), (1e-6, 5000)])
    def test_matches_step_loop_where_the_gain_never_settles(self, delta, n):
        # P_t stays away from its limit for all n rows, so the whole series
        # runs as the unsettled prefix; at delta 1e-6 the gains alternate
        # near 1e-3 and 1e-9, so their products underflow within a few rows,
        # and 5000 rows take more than one run of blocks
        data = (make_rng(16).standard_normal((n, 2))
                + np.linspace(0.0, 5.0, n)[:, None])
        path = self._assert_matches_steps(data, init(DwrConfig(dim=2, delta=delta)))
        limit = steady_state_scale(delta)
        assert np.all(np.abs(path.p_pre - limit) > dwr._SETTLED_RTOL * limit)

    @pytest.mark.parametrize("prefix", [1, 2, 63, 65, 129, 353])
    def test_matches_step_loop_where_the_prefix_ends_inside_a_block(self, prefix):
        # from a fresh start P_t settles at row 353 at delta 0.1; resuming
        # after 353 - prefix rows leaves a prefix that fills no whole number
        # of 64-row blocks, followed by the constant-gain tail
        config = DwrConfig(dim=3, delta=0.1)
        data = (make_rng(17).standard_normal((600, 3))
                + np.linspace(0.0, 5.0, 600)[:, None])
        limit = steady_state_scale(0.1)
        near = np.abs(run_filter(config, data).p_pre - limit) <= dwr._SETTLED_RTOL * limit
        assert int(np.argmax(near)) == 353
        start = run_filter(config, data[:353 - prefix]).final
        self._assert_matches_steps(data[353 - prefix:], start)

    def test_resumed_kernel_matches_continued_steps(self):
        config = DwrConfig(dim=2, delta=0.4)
        data = make_rng(15).standard_normal((120, 2))
        state = run_filter(config, data[:50]).final
        before = state.copy()
        path = self._assert_matches_steps(data[50:], state)
        # one covariance array: s_pre starts at the start's S, then is s_post
        np.testing.assert_array_equal(path.s_pre[0], state.S)
        assert np.shares_memory(path.s_pre, path.s_post)
        assert (path.final.delta, path.final.t) == (0.4, 120)
        # an owning array: a view would keep the whole (n, p, p) sums alive
        assert path.final.sum_outer.base is None
        # the start state is left as it was
        assert state.t == before.t and state.P == before.P
        np.testing.assert_array_equal(state.m, before.m)
        np.testing.assert_array_equal(state.sum_outer, before.sum_outer)
