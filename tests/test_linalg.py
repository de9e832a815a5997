"""SPD kernels: factorizations, determinants, quadratic forms, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bfchart.exceptions import DimensionMismatch, NotPositiveDefinite
from bfchart.linalg import (
    as_spd,
    chol_log_det,
    chol_sq,
    cholesky,
    make_rng,
    sample_mvn,
    sym_inv_sqrt,
)


# log det(m) and x' m^{-1} x as the package forms them: from a Cholesky factor
def log_det(m):
    return chol_log_det(cholesky(m))


def quad_form(x, m):
    return chol_sq(cholesky(m), np.asarray(x, dtype=float))


def random_spd(draw_matrix):
    """SPD matrix A A' + 0.1 I from an arbitrary square matrix."""
    a = np.asarray(draw_matrix, dtype=float)
    return a @ a.T + 0.1 * np.eye(a.shape[0])


spd_strategy = arrays(
    float,
    (3, 3),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
).map(random_spd)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(2)), np.eye(2))

    def test_diagonal_hand_case(self):
        L = cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(L, np.diag([2.0, 3.0]))

    def test_indefinite_rejected(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 0.5], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky([[np.nan, 0.0], [0.0, 1.0]])

    def test_entry_near_the_largest_float(self):
        # symmetrized as (m + m')/2, the 1e308 would overflow to inf
        m = np.diag([1e308, 1.0])
        np.testing.assert_allclose(cholesky(m), np.diag([1e154, 1.0]))
        np.testing.assert_allclose(sym_inv_sqrt(m), np.diag([1e-154, 1.0]))

    @settings(max_examples=50, deadline=None)
    @given(spd_strategy)
    def test_factor_reconstructs(self, m):
        L = cholesky(m)
        np.testing.assert_allclose(L @ L.T, as_spd(m), atol=1e-8)


class TestLogDet:
    """chol_log_det of the Cholesky factor."""

    def test_identity_is_zero(self):
        assert log_det(np.eye(3)) == 0.0

    def test_diagonal_hand_case(self):
        assert log_det(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), abs=1e-12)

    def test_unit_determinant_case(self):
        # det [[1,2],[2,5]] = 5 - 4 = 1
        assert log_det([[1.0, 2.0], [2.0, 5.0]]) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(spd_strategy)
    def test_matches_slogdet(self, m):
        sign, expected = np.linalg.slogdet(as_spd(m))
        assert sign == 1.0
        assert log_det(m) == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestQuadForm:
    """chol_sq of the Cholesky factor: x' m^{-1} x."""

    def test_zero_vector(self):
        assert quad_form([0.0, 0.0], np.eye(2)) == 0.0

    def test_identity_case(self):
        assert quad_form([1.0, 0.0], np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_hand_inverse_case(self):
        # inverse of [[1,2],[2,5]] is [[5,-2],[-2,1]]; [1,1]' inv [1,1] = 2
        assert quad_form([1.0, 1.0], [[1.0, 2.0], [2.0, 5.0]]) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quad_form([1.0, 2.0, 3.0], np.eye(2))
        with pytest.raises(DimensionMismatch):
            quad_form([1.0], np.eye(2))

    @settings(max_examples=50, deadline=None)
    @given(
        spd_strategy,
        arrays(float, 3, elements=st.floats(-5, 5, allow_nan=False)),
    )
    def test_matches_explicit_inverse(self, m, x):
        expected = x @ np.linalg.solve(as_spd(m), x)
        assert quad_form(x, m) == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_chol_quad_form_consistent(self):
        # a stack of factors and vectors gives each one's value, which for
        # the first is 11 / 1.75 (inverse of m is [[1, -0.5], [-0.5, 2]] / 1.75)
        m = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 2.0], [2.0, 5.0]]])
        x = np.array([[1.0, -2.0], [1.0, 1.0]])
        got = chol_sq(np.linalg.cholesky(m), x)
        assert got.shape == (2,)
        assert got[0] == pytest.approx(11.0 / 1.75, abs=1e-12)
        assert got[1] == pytest.approx(quad_form(x[1], m[1]), abs=1e-12)
        assert got[1] == pytest.approx(2.0, abs=1e-12)


class TestSymInvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(sym_inv_sqrt(np.eye(2)), np.eye(2))

    def test_diagonal_hand_case(self):
        r = sym_inv_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(r, np.diag([0.5, 1.0 / 3.0]))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            sym_inv_sqrt([[1.0, 2.0], [2.0, 1.0]])

    def test_stack_is_checked_matrix_by_matrix(self):
        stack = np.stack([np.diag([4.0, 9.0]), np.eye(2)])
        np.testing.assert_allclose(
            sym_inv_sqrt(stack), [np.diag([0.5, 1.0 / 3.0]), np.eye(2)]
        )
        for bad, error in (
            ([[1.0, 2.0], [2.0, 1.0]], NotPositiveDefinite),
            ([[1.0, 0.5], [0.0, 1.0]], NotPositiveDefinite),
            ([[np.nan, 0.0], [0.0, 1.0]], NotPositiveDefinite),
        ):
            with pytest.raises(error):
                sym_inv_sqrt(np.stack([np.eye(2), bad, np.eye(2)]))
        with pytest.raises(DimensionMismatch):
            sym_inv_sqrt(np.ones((3, 2, 3)))

    @settings(max_examples=50, deadline=None)
    @given(spd_strategy)
    def test_defining_property(self, m):
        r = sym_inv_sqrt(m)
        np.testing.assert_allclose(r, r.T)
        np.testing.assert_allclose(r @ as_spd(m) @ r, np.eye(3), atol=1e-7)


class TestSampleMvn:
    def test_mean_within_clt_bound(self):
        n = 10**5
        draws = sample_mvn([0.0, 0.0], np.eye(2), n, make_rng(11))
        bound = 3.0 / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) < max(bound, 0.02))

    def test_covariance_entrywise(self):
        cov = np.array([[1.0, 2.0], [2.0, 5.0]])
        draws = sample_mvn([0.0, 0.0], cov, 10**5, make_rng(12))
        sample_cov = np.cov(draws, rowvar=False)
        assert np.max(np.abs(sample_cov - cov)) < 0.1

    def test_deterministic_per_seed(self):
        a = sample_mvn([1.0], [[2.0]], 100, make_rng(5))
        b = sample_mvn([1.0], [[2.0]], 100, make_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_rejects_non_positive_count(self):
        with pytest.raises(DimensionMismatch):
            sample_mvn([0.0], [[1.0]], 0, make_rng(0))

    def test_rejects_mean_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sample_mvn([0.0, 0.0, 0.0], np.eye(2), 10, make_rng(0))


class TestMakeRng:
    def test_same_key_same_stream(self):
        assert make_rng(3, 7).standard_normal() == make_rng(3, 7).standard_normal()

    def test_child_streams_differ(self):
        a = make_rng(3, 0).standard_normal(4)
        b = make_rng(3, 1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_plain_seed_matches_default_rng(self):
        assert (
            make_rng(42).standard_normal()
            == np.random.default_rng(42).standard_normal()
        )
