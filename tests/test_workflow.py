"""Two-phase workflow: fitting, serialization, frozen monitoring."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from bfchart.bayesfactor import TargetSpec
from bfchart.chart import asymptotic_sigma_z2
from bfchart.dwr import DwrConfig, steady_state_scale
from bfchart.exceptions import (
    DegenerateFit,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteScore,
    NotPositiveDefinite,
    SchemaMismatch,
    TooShort,
)
from bfchart.linalg import cholesky, make_rng
from bfchart.simulate import gen_local_level
from bfchart.workflow import (
    DELTA_GRID,
    RUN_WARNING,
    FittedModel,
    _run_warnings,
    difference,
    estimate_target,
    phase1,
    phase2,
)

SIGMA = np.array([[1.0, 2.0], [2.0, 5.0]])


@pytest.fixture(scope="module")
def fitted():
    """One shared Phase I fit on self-consistent in-control data."""
    config = DwrConfig(dim=2, delta=0.9)
    data = gen_local_level(config, SIGMA, 400, make_rng(50))
    model = phase1(
        data,
        deltas=(0.7, 0.8, 0.9),
        lam=0.05,
        target_arl=370.4,
        seed=1,
        calib_reps=500,
    )
    return model, data, config


class TestDifference:
    def test_hand_case(self):
        np.testing.assert_array_equal(
            difference([[1.0], [3.0], [6.0]]), [[2.0], [3.0]]
        )

    def test_constant_series(self):
        np.testing.assert_array_equal(difference(np.ones((4, 2))), np.zeros((3, 2)))

    def test_too_short(self):
        with pytest.raises(TooShort):
            difference([[1.0]])

    def test_inverts_cumulative_sum(self):
        rows = make_rng(51).standard_normal((30, 2))
        np.testing.assert_allclose(
            difference(np.cumsum(rows, axis=0)), rows[1:], atol=1e-12
        )

    def test_random_walk_becomes_white(self):
        walk = np.cumsum(make_rng(52).standard_normal((10**4, 2)), axis=0)
        from bfchart.diagnostics import lag1_autocorr

        diffed = difference(walk)
        for coord in range(2):
            assert abs(lag1_autocorr(diffed[:, coord])) < 0.05


class TestEstimateTarget:
    def test_sample_moments(self):
        from bfchart.simulate import gen_iid, reference_scenarios

        data = gen_iid(reference_scenarios()["in_control"], 10**4, make_rng(53))
        target = estimate_target(data)
        assert np.all(np.abs(target.mu) < 0.07)
        assert np.all(
            np.abs(np.diag(target.V) - np.diag(SIGMA)) < 0.05 * np.diag(SIGMA)
        )

    def test_matches_numpy_cov(self):
        data = make_rng(54).standard_normal((40, 3))
        target = estimate_target(data)
        np.testing.assert_allclose(target.V, np.cov(data, rowvar=False, ddof=1))
        np.testing.assert_allclose(target.mu, data.mean(axis=0))

    def test_constant_data_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            estimate_target(np.ones((20, 2)))

    def test_too_short(self):
        with pytest.raises(TooShort):
            estimate_target(np.ones((3, 2)))


class TestPhase1(object):
    def test_selected_model_is_adequate(self, fitted):
        model, _, _ = fitted
        assert model.delta in (0.7, 0.8, 0.9)
        cholesky(model.s_opt)  # raises unless positive definite
        assert np.all((model.fit.msse > 0.8) & (model.fit.msse < 1.2))
        assert model.p_star == pytest.approx(steady_state_scale(model.delta))
        assert model.n_phase1 == 400

    def test_selection_minimizes_msse_score(self, fitted):
        model, _, _ = fitted
        scores = {g.delta: g.report.msse_score for g in model.grid}
        assert scores[model.delta] == min(scores.values())

    def test_chart_limits_follow_asymptotic_variance(self, fitted):
        model, _, _ = fitted
        sigma_z2 = asymptotic_sigma_z2(model.chart.lam, model.ar)
        assert model.chart.sigma_z == pytest.approx(np.sqrt(sigma_z2), rel=1e-12)
        assert model.chart.ucl == pytest.approx(
            model.chart.mu_z + model.chart.c * model.chart.sigma_z
        )

    def test_offset_is_stationary_mean_of_fit(self, fitted):
        model, _, _ = fitted
        assert model.lbf_offset == pytest.approx(model.ar.mean)
        assert model.chart.mu_z == 0.0  # recenter off

    def test_default_grid_constant(self):
        assert DELTA_GRID == tuple(round(0.1 * k, 1) for k in range(1, 10))

    def test_too_short_rejected(self):
        with pytest.raises(TooShort):
            phase1(np.zeros((10, 2)))

    def test_degenerate_data_rejected(self):
        with pytest.raises(DegenerateFit):
            phase1(np.ones((60, 2)), target=TargetSpec([1.0, 1.0], np.eye(2)),
                   deltas=(0.9,), calib_reps=200)

    def test_constant_difference_rejected(self):
        data = make_rng(4).standard_normal((60, 2))
        data[:, 0] = 0.5 * np.arange(60)  # a linear trend differences to 0.5
        with pytest.raises(DegenerateFit, match="column 0 is constant"):
            phase1(data, apply_difference=True, calib_reps=200)

    def test_differenced_target_has_zero_mean(self):
        data = make_rng(55).standard_normal((80, 2)) + 5.0
        given = phase1(data, target=TargetSpec([5.0, -3.0], SIGMA), deltas=(0.9,),
                       apply_difference=True, calib_reps=200)
        zero = phase1(data, target=TargetSpec([0.0, 0.0], SIGMA), deltas=(0.9,),
                      apply_difference=True, calib_reps=200)
        np.testing.assert_array_equal(given.target.mu, [0.0, 0.0])
        assert given.to_dict() == zero.to_dict()

    def test_model_arrays_are_read_only(self, fitted):
        # an in-place edit would bypass the checks the model was built with
        model, _, _ = fitted
        for a in (model.m_opt, model.s_opt, model.phase1_z):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] += 1.0

    def test_target_dim_checked(self, fitted):
        _, data, _ = fitted
        with pytest.raises(DimensionMismatch):
            phase1(data, target=TargetSpec([0.0], [[1.0]]), deltas=(0.9,),
                   calib_reps=200)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        data = make_rng(0).standard_normal((300, 2))
        data[7, 1] = bad
        with pytest.raises(InvalidConfig, match="row 7, column 1"):
            phase1(data, calib_reps=200)

    def test_recenter_zeroes_phase1_ewma(self):
        config = DwrConfig(dim=2, delta=0.9)
        data = gen_local_level(config, SIGMA, 200, make_rng(56))
        model = phase1(data, deltas=(0.9,), seed=2, calib_reps=300, recenter=True)
        assert model.recenter
        centered = model.phase1_z - model.chart.mu_z
        assert abs(float(centered.mean())) < 1e-10


class TestSerialization:
    def test_round_trip(self, fitted):
        model, _, _ = fitted
        clone = FittedModel.from_dict(model.to_dict())
        assert clone.delta == model.delta
        np.testing.assert_array_equal(clone.m_opt, model.m_opt)
        np.testing.assert_array_equal(clone.s_opt, model.s_opt)
        np.testing.assert_array_equal(clone.target.V, model.target.V)
        assert clone.ar == model.ar
        assert clone.chart == model.chart
        assert clone.lbf_offset == model.lbf_offset
        assert clone.warmup == model.warmup
        np.testing.assert_array_equal(clone.phase1_z, model.phase1_z)
        np.testing.assert_array_equal(clone.fit.msse, model.fit.msse)
        assert len(clone.grid) == len(model.grid)

    def test_round_trip_survives_json(self, fitted):
        import json

        model, _, _ = fitted
        doc = json.loads(json.dumps(model.to_dict()))
        clone = FittedModel.from_dict(doc)
        np.testing.assert_array_equal(clone.s_opt, model.s_opt)

    def test_wrong_kind_rejected(self):
        with pytest.raises(SchemaMismatch):
            FittedModel.from_dict({"kind": "something-else", "schema_version": 1})

    def test_wrong_version_rejected(self, fitted):
        model, _, _ = fitted
        doc = model.to_dict()
        doc["schema_version"] = 99
        with pytest.raises(SchemaMismatch):
            FittedModel.from_dict(doc)

    def test_missing_field_rejected(self, fitted):
        model, _, _ = fitted
        doc = model.to_dict()
        del doc["ar"]
        with pytest.raises(SchemaMismatch):
            FittedModel.from_dict(doc)

    def test_malformed_matrix_rejected(self, fitted):
        model, _, _ = fitted
        doc = model.to_dict()
        doc["s_opt"]["data"] = [1.0, 2.0, 3.0]
        with pytest.raises(SchemaMismatch):
            FittedModel.from_dict(doc)


def ewma_loop(x, lam, z0):
    """The EWMA recursion one value at a time."""
    z = np.empty(len(x))
    prev = z0
    for t, value in enumerate(x):
        prev = lam * value + (1.0 - lam) * prev
        z[t] = prev
    return z


class TestPhase2:
    @pytest.fixture
    def shifted(self, fitted):
        """A shifted stream charted about an off-zero center, frozen and tracking."""
        model, _, config = fitted
        # an off-zero center, so that where the EWMA starts is checked too
        chart = replace(model.chart, mu_z=0.5 * model.chart.sigma_z)
        model = replace(model, chart=chart)
        stream = gen_local_level(config, SIGMA, 80, make_rng(59))
        stream[40:, 0] += 5.0 * np.sqrt(SIGMA[0, 0])
        return model, [phase2(model, stream, tracking=mode) for mode in (False, True)]

    def test_empty_data(self, fitted):
        model, _, _ = fitted
        for empty in (np.empty((0, 2)), np.empty(0), []):
            result = phase2(model, empty)
            for arr in (result.lbf, result.x, result.z):
                assert arr.shape == (0,) and arr.dtype == float
            assert result.out_of_control.shape == (0,)
            assert result.out_of_control.dtype == bool
            assert result.signals == ()
            assert result.warnings == ()

    def test_pure_function_of_model_and_data(self, fitted):
        model, _, config = fitted
        stream = gen_local_level(config, SIGMA, 60, make_rng(57))
        a = phase2(model, stream)
        b = phase2(model, stream)
        np.testing.assert_array_equal(a.lbf, b.lbf)
        assert a.signals == b.signals
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.out_of_control, b.out_of_control)

    def test_frozen_mode_scores_points_independently(self, fitted):
        model, _, config = fitted
        stream = gen_local_level(config, SIGMA, 40, make_rng(58))
        forward = phase2(model, stream).lbf
        reversed_lbf = phase2(model, stream[::-1]).lbf
        np.testing.assert_allclose(reversed_lbf, forward[::-1], atol=1e-12)

    def test_x_is_the_offset_lbf(self, shifted):
        model, results = shifted
        for result in results:
            np.testing.assert_array_equal(result.x, result.lbf - model.lbf_offset)

    def test_z_is_the_ewma_of_x_from_the_center(self, shifted):
        model, results = shifted
        for result in results:
            want = ewma_loop(result.x, model.chart.lam, model.chart.mu_z)
            np.testing.assert_allclose(result.z, want, rtol=1e-12, atol=1e-14)

    def test_signals_match_flagged_points(self, shifted):
        model, results = shifted
        for result in results:
            assert result.out_of_control.dtype == bool
            np.testing.assert_array_equal(
                result.out_of_control,
                (result.z > model.chart.ucl) | (result.z < model.chart.lcl),
            )
            assert result.signals == tuple(np.flatnonzero(result.out_of_control))
            assert all(type(t) is int for t in result.signals)
            assert result.signals  # a five-sigma shift must signal

    def test_tracking_mode_differs_from_frozen(self, fitted):
        model, _, config = fitted
        stream = gen_local_level(config, SIGMA, 60, make_rng(60))
        frozen = phase2(model, stream).lbf
        tracking = phase2(model, stream, tracking=True).lbf
        assert not np.allclose(frozen, tracking)

    def test_dim_mismatch(self, fitted):
        model, _, _ = fitted
        with pytest.raises(DimensionMismatch):
            phase2(model, np.zeros((5, 3)))

    def test_persistent_drift_yields_run_warning(self, fitted):
        model, _, config = fitted
        stream = gen_local_level(config, SIGMA, 60, make_rng(61))
        stream[:, 0] += 5.0 * np.sqrt(SIGMA[0, 0])
        result = phase2(model, stream)
        assert any("consecutive EWMA values" in w for w in result.warnings)

    def test_difference_flag_monitors_the_differenced_stream(self):
        config = DwrConfig(dim=2, delta=0.9)
        data = gen_local_level(config, SIGMA, 200, make_rng(62))
        model = phase1(data, deltas=(0.9,), seed=3, calib_reps=300,
                       apply_difference=True)
        assert model.difference
        np.testing.assert_array_equal(model.target.mu, [0.0, 0.0])
        stream = gen_local_level(config, SIGMA, 30, make_rng(63))
        result = phase2(model, stream)
        assert len(result.z) == 29  # one row lost to differencing
        with pytest.raises(TooShort):
            phase2(model, stream[:1])
        empty = phase2(model, stream[:0])
        assert empty.z.shape == empty.out_of_control.shape == (0,)
        assert empty.signals == ()


def run_warnings_loop(z, center):
    """The run scan one point at a time, as an oracle for _run_warnings."""
    side = np.sign(z - center)
    start = 0
    for t in range(1, len(z) + 1):
        if t == len(z) or side[t] != side[start] or side[start] == 0:
            length = t - start
            if length >= RUN_WARNING and side[start] != 0:
                where = "above" if side[start] > 0 else "below"
                yield (
                    f"{length} consecutive EWMA values {where} center "
                    f"from t={start} to t={t - 1}"
                )
            start = t


class TestRunWarnings:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_sign_runs_match_loop(self, seed):
        rng = make_rng(90, seed)
        # runs of random length on a random side, some exactly at the center
        lengths = rng.integers(1, 3 * RUN_WARNING, size=40)
        levels = rng.choice([-1.5, 0.0, 2.0], size=40)
        z = np.repeat(levels, lengths) + 0.25
        assert _run_warnings(z, 0.25) == list(run_warnings_loop(z, 0.25))

    @pytest.mark.parametrize("seed", range(5))
    def test_smooth_path_matches_loop(self, seed):
        z = ewma_loop(make_rng(91, seed).standard_normal(2000), 0.05, 0.0)
        got = _run_warnings(z, 0.0)
        assert got == list(run_warnings_loop(z, 0.0))
        assert got

    def test_points_at_center_break_runs(self):
        z = np.r_[np.ones(RUN_WARNING), 0.0, np.ones(RUN_WARNING - 1), np.zeros(20)]
        got = _run_warnings(z, 0.0)
        assert got == list(run_warnings_loop(z, 0.0))
        assert got == [f"{RUN_WARNING} consecutive EWMA values above center "
                       f"from t=0 to t={RUN_WARNING - 1}"]

    def test_empty_input(self):
        assert _run_warnings(np.empty(0), 0.0) == []

    @pytest.mark.parametrize("sign, where", [(1.0, "above"), (-1.0, "below")])
    def test_run_spanning_the_whole_series(self, sign, where):
        z = sign * np.linspace(0.1, 1.0, 50)
        assert _run_warnings(z, 0.0) == list(run_warnings_loop(z, 0.0))
        assert _run_warnings(z, 0.0) == [
            f"50 consecutive EWMA values {where} center from t=0 to t=49"
        ]

    def test_short_series_never_warns(self):
        assert _run_warnings(np.ones(RUN_WARNING - 1), 0.0) == []


class TestPhase2NonFinite:
    @pytest.fixture(scope="class")
    def iid_model(self):
        return phase1(make_rng(0).standard_normal((300, 2)), calib_reps=200)

    @pytest.fixture
    def stream(self):
        y = make_rng(1).standard_normal((50, 2))
        y[20] += 50.0
        return y

    def test_spike_signals(self, iid_model, stream):
        assert len(phase2(iid_model, stream).signals) > 0

    @pytest.mark.parametrize("tracking", [False, True])
    def test_nan_cell_raises_instead_of_dropping_signals(
        self, iid_model, stream, tracking
    ):
        stream[5, 1] = np.nan
        with pytest.raises(InvalidConfig, match="row 5, column 1"):
            phase2(iid_model, stream, tracking=tracking)

    def test_first_bad_cell_is_named(self, iid_model, stream):
        stream[9, 0] = -np.inf
        stream[30, 1] = np.nan
        with pytest.raises(InvalidConfig, match="row 9, column 0"):
            phase2(iid_model, stream)

    @pytest.mark.parametrize("differenced", [False, True])
    def test_overflowing_row_raises_naming_it(self, iid_model, stream, differenced):
        # finite rows whose frozen LBF overflows; a NaN score would leave
        # every later EWMA value NaN and never signal
        stream[12] = 1e200
        stream[30] = -1e200
        model = replace(iid_model, difference=differenced)
        with pytest.raises(NonFiniteScore, match=r"not finite at row 12$"):
            phase2(model, stream)

    @pytest.mark.parametrize("differenced", [False, True])
    def test_tracking_names_the_row_that_overflows_the_covariance(
        self, iid_model, stream, differenced
    ):
        # the overflowed outer product makes every later S non-finite; the
        # error names the data row, not the filter time, and warns nothing
        stream[12] = 1e200
        stream[30] = -1e200
        model = replace(iid_model, difference=differenced)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteScore, match=r"^row 12 overflows"):
                phase2(model, stream, tracking=True)

    @pytest.mark.parametrize("tracking", [False, True])
    def test_overflowing_last_row_raises(self, iid_model, stream, tracking):
        # no later covariance sees the last row, so only its own score can
        # tell; a NaN there would end the chart without a signal
        stream[-1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteScore, match=r"not finite at row 49$"):
                phase2(iid_model, stream, tracking=tracking)
