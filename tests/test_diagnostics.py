"""Adequacy statistics: MSSE, MAE, MAPE, autocorrelation, skewness."""

import numpy as np
import pytest

from bfchart.diagnostics import (
    fit_report,
    lag1_autocorr,
    mae,
    mape,
    msse,
    skewness,
    standardize_errors,
)
from bfchart.exceptions import (
    DimensionMismatch,
    EmptyInput,
    NotPositiveDefinite,
    TooShort,
    ZeroVariance,
)
from bfchart.linalg import make_rng, sym_inv_sqrt


class TestStandardizeErrors:
    def test_identity_covariance_is_noop(self):
        errors = np.array([[1.0, -2.0], [0.5, 0.0]])
        covs = [np.eye(2), np.eye(2)]
        np.testing.assert_allclose(standardize_errors(errors, covs), errors)

    def test_scalar_square_root(self):
        out = standardize_errors([[2.0]], [np.array([[4.0]])])
        assert out[0, 0] == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            standardize_errors([[1.0]], [np.eye(1), np.eye(1)])

    def test_whitens_to_unit_covariance(self):
        rng = make_rng(20)
        cov = np.array([[2.0, 0.7], [0.7, 1.0]])
        L = np.linalg.cholesky(cov)
        errors = rng.standard_normal((20000, 2)) @ L.T
        e_star = standardize_errors(errors, [cov] * len(errors))
        np.testing.assert_allclose(
            np.cov(e_star, rowvar=False), np.eye(2), atol=0.05
        )


    def test_matches_per_matrix_loop(self):
        rng = make_rng(21)
        a = rng.standard_normal((50, 3, 3))
        covs = a @ np.swapaxes(a, 1, 2) + 0.2 * np.eye(3)
        errors = rng.standard_normal((50, 3))
        expected = np.array([sym_inv_sqrt(c) @ e for c, e in zip(covs, errors)])
        np.testing.assert_allclose(standardize_errors(errors, covs), expected,
                                   rtol=1e-12, atol=1e-12)

    def test_one_indefinite_matrix_in_the_stack_is_rejected(self):
        covs = np.tile(np.eye(2), (6, 1, 1))
        covs[4] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(NotPositiveDefinite):
            standardize_errors(np.ones((6, 2)), covs)


def rotated_stack(p, kappa, n, seed):
    """n covariances Q diag(1 ... 1/kappa) Q' at random rotations Q, exactly
    symmetric, and n errors."""
    rng = make_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, p, p)))
    covs = (q * np.geomspace(1.0, 1.0 / kappa, p)) @ np.swapaxes(q, -1, -2)
    covs = 0.5 * covs + 0.5 * np.swapaxes(covs, -1, -2)
    return rng.standard_normal((n, p)), covs


class TestWhiteningFromEigenpairs:
    """Above 2 x 2 each error is whitened from its covariance's eigenpairs."""

    @pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("p", [3, 4, 6, 5])
    def test_matches_the_per_matrix_root(self, p, kappa):
        # both lie within about kappa * eps of the exact C^-1/2 e, relative
        # to |C^-1/2| |e| = sqrt(kappa) |e|
        errors, covs = rotated_stack(p, kappa, 40, seed=22)
        expected = np.array([sym_inv_sqrt(c) @ e for c, e in zip(covs, errors)])
        got = standardize_errors(errors, covs)
        norm = np.sqrt(kappa) * np.linalg.norm(errors, axis=1)
        bound = np.finfo(float).eps * (kappa + 4.0)
        assert np.all(np.abs(got - expected).max(axis=1) <= bound * norm)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_stack_of_one(self, p):
        errors, covs = rotated_stack(p, 1e3, 1, seed=23)
        np.testing.assert_allclose(standardize_errors(errors, covs)[0],
                                   sym_inv_sqrt(covs[0]) @ errors[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bad", ["indefinite", "singular", "nan", "inf", "asymmetric"])
    @pytest.mark.parametrize("where", [0, 5, 9])
    def test_one_bad_matrix_anywhere_is_refused(self, bad, where):
        errors, covs = rotated_stack(4, 10.0, 10, seed=24)
        if bad == "indefinite":
            covs[where] = np.diag([1.0, 2.0, -1e-3, 3.0])
        elif bad == "singular":
            covs[where] = np.diag([1.0, 2.0, 0.0, 3.0])
        elif bad == "nan":
            covs[where, 1, 1] = np.nan
        elif bad == "inf":
            covs[where, 2, 3] = covs[where, 3, 2] = np.inf
        else:
            covs[where, 0, 3] += 2e-10
        with pytest.raises(NotPositiveDefinite):
            standardize_errors(errors, covs)

    @pytest.mark.parametrize("bad", ["indefinite", "singular", "nan", "inf", "asymmetric"])
    @pytest.mark.parametrize("p", [3, 5])
    def test_one_bad_matrix_of_three_or_five_is_refused(self, p, bad):
        # 3 x 3 goes through the Jacobi kernel, 5 x 5 through LAPACK
        errors, covs = rotated_stack(p, 10.0, 10, seed=27)
        if bad == "indefinite":
            covs[4] = np.diag([1.0, 2.0, -1e-3, 3.0, 4.0][:p])
        elif bad == "singular":
            covs[4] = np.diag([1.0, 2.0, 0.0, 3.0, 4.0][:p])
        elif bad == "nan":
            covs[4, 1, 1] = np.nan
        elif bad == "inf":
            covs[4, 0, 2] = covs[4, 2, 0] = np.inf
        else:
            covs[4, 0, 2] += 2e-10
        with pytest.raises(NotPositiveDefinite):
            standardize_errors(errors, covs)

    @pytest.mark.parametrize("p", [3, 4])
    def test_diagonal_covariances_divide_by_their_roots(self, p):
        rng = make_rng(28)
        d = rng.uniform(0.1, 10.0, (30, p))
        errors = rng.standard_normal((30, p))
        covs = np.stack([np.diag(row) for row in d])
        np.testing.assert_array_equal(standardize_errors(errors, covs), errors / np.sqrt(d))

    @pytest.mark.parametrize("p", [1, 2, 5, 6])
    def test_other_sizes_keep_their_lapack_or_closed_form_bits(self, p):
        # only 3 x 3 and 4 x 4 stacks go through the Jacobi kernel
        errors, covs = rotated_stack(p, 1e3, 40, seed=29)
        if p <= 2:
            expected = (sym_inv_sqrt(covs) @ errors[..., None])[..., 0]
        else:
            w, u = np.linalg.eigh(covs)
            z = (np.swapaxes(u, -1, -2) @ errors[..., None]) / np.sqrt(w)[..., None]
            expected = (u @ z)[..., 0]
        np.testing.assert_array_equal(standardize_errors(errors, covs), expected)

    @pytest.mark.parametrize("p", [3, 4])
    def test_rows_come_back_in_row_order(self, p):
        # msse then sums each column in the same order as for the LAPACK branch
        errors, covs = rotated_stack(p, 10.0, 20, seed=30)
        assert standardize_errors(errors, covs).flags.c_contiguous

    @pytest.mark.parametrize("gap", [1e-10, 3e-11, 1e-16])
    def test_small_asymmetry_whitens_the_symmetrized_stack(self, gap):
        errors, covs = rotated_stack(4, 10.0, 10, seed=25)
        covs[:] = np.diag([1.0, 2.0, 3.0, 4.0])
        covs[6, 1, 3] = gap
        symmetrized = 0.5 * covs + 0.5 * np.swapaxes(covs, -1, -2)
        np.testing.assert_array_equal(standardize_errors(errors, covs),
                                      standardize_errors(errors, symmetrized))

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("gap", [0.0, 1e-11])
    def test_covariances_are_left_alone(self, p, gap):
        errors, covs = rotated_stack(p, 10.0, 10, seed=26)
        covs[3, 0, 1] += gap
        before = covs.copy()
        standardize_errors(errors, covs)
        np.testing.assert_array_equal(covs, before)


class TestMsse:
    def test_unit_case(self):
        np.testing.assert_allclose(msse(np.ones((4, 3))), np.ones(3))

    def test_hand_mean(self):
        assert msse(np.array([[1.0], [3.0]]))[0] == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            msse(np.empty((0, 2)))


class TestMae:
    def test_hand_mean(self):
        np.testing.assert_allclose(
            mae(np.array([[1.0, -1.0], [3.0, -3.0]])), [2.0, 2.0]
        )

    def test_zero_errors(self):
        np.testing.assert_array_equal(mae(np.zeros((5, 2))), np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            mae(np.empty((0, 2)))


class TestMape:
    def test_hand_mean(self):
        out = mape(np.array([[1.0], [1.0]]), np.array([[2.0], [4.0]]))
        assert out[0] == pytest.approx(0.375)

    def test_non_positive_coordinate_is_nan(self):
        out = mape(
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.array([[2.0, -1.0], [4.0, 3.0]]),
        )
        assert out[0] == pytest.approx(0.375)
        assert np.isnan(out[1])

    def test_zero_errors(self):
        out = mape(np.zeros((3, 1)), np.ones((3, 1)))
        assert out[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mape(np.ones((3, 1)), np.ones((4, 1)))


class TestFitReport:
    def test_bundles_all_statistics(self):
        errors = np.array([[1.0], [-1.0]])
        covs = [np.eye(1), np.eye(1)]
        observations = np.array([[2.0], [4.0]])
        report = fit_report(errors, covs, observations)
        assert report.n == 2
        assert report.msse[0] == pytest.approx(1.0)
        assert report.mae[0] == pytest.approx(1.0)
        assert report.mape[0] == pytest.approx(0.375)
        assert report.msse_score == pytest.approx(0.0)

    def test_msse_score_is_mean_deviation_from_one(self):
        errors = np.array([[2.0, 0.0], [0.0, 0.0]])
        report = fit_report(errors, [np.eye(2)] * 2, np.ones((2, 2)))
        # msse = [2, 0] so the mean |msse - 1| is 1
        assert report.msse_score == pytest.approx(1.0)

    def test_msse_near_one_for_correct_model(self):
        from bfchart.dwr import DwrConfig, run_filter
        from bfchart.simulate import gen_local_level

        config = DwrConfig(dim=2, delta=0.5)
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        data = gen_local_level(config, sigma, 1000, make_rng(21))
        path = run_filter(config, data)
        w = 50
        covs = [
            (config.delta + path.p_pre[t]) * path.s_pre[t] / config.delta
            for t in range(w, 1000)
        ]
        report = fit_report(path.errors[w:], covs, data[w:])
        assert np.all(np.abs(report.msse - 1.0) < 0.2)


class TestLag1Autocorr:
    def test_alternating_sequence(self):
        x = np.tile([1.0, -1.0], 50)
        assert lag1_autocorr(x) == pytest.approx(-1.0, abs=0.02)

    def test_constant_rejected(self):
        with pytest.raises(ZeroVariance):
            lag1_autocorr(np.full(10, 3.0))

    def test_too_short(self):
        with pytest.raises(TooShort):
            lag1_autocorr([1.0, 2.0])

    def test_white_noise_bound(self):
        x = make_rng(22).standard_normal(10**4)
        assert abs(lag1_autocorr(x)) < 0.03

    def test_persistent_series_positive(self):
        from bfchart.chart import Ar1Model
        from bfchart.simulate import gen_ar1

        x = gen_ar1(Ar1Model(0.0, 0.6, 1.0), 10**4, make_rng(23))
        assert lag1_autocorr(x) == pytest.approx(0.6, abs=0.03)


class TestSkewness:
    def test_exact_symmetry(self):
        x = make_rng(24).standard_normal(500)
        assert skewness(np.concatenate([x, -x])) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_population_value(self):
        x = make_rng(25).exponential(1.0, 10**5)
        assert skewness(x) == pytest.approx(2.0, abs=0.1)

    def test_normal_sample_bound(self):
        x = make_rng(26).standard_normal(10**5)
        assert abs(skewness(x)) < 0.05

    def test_constant_rejected(self):
        with pytest.raises(ZeroVariance):
            skewness(np.zeros(10))

    def test_too_short(self):
        with pytest.raises(TooShort):
            skewness([1.0, 2.0])
