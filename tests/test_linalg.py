"""SPD kernels: factorizations, determinants, quadratic forms, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bfchart.exceptions import DimensionMismatch, InvalidConfig, NotPositiveDefinite
from bfchart.linalg import (
    as_rows,
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
    """SPD matrix A A' + 0.1 I from an arbitrary square matrix, or a stack of them."""
    a = np.asarray(draw_matrix, dtype=float)
    return a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(a.shape[-1])


spd_strategy = arrays(
    float,
    (3, 3),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
).map(random_spd)

# stacks of four SPD matrices of size 1, 2 or 3
spd_stack_strategy = st.integers(1, 3).flatmap(lambda p: arrays(
    float,
    (4, p, p),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)).map(random_spd)


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


class TestAsSpd:
    @pytest.mark.parametrize("gap", [0.0, 1e-12])
    def test_returns_a_copy_the_caller_owns(self, gap):
        m = np.array([[2.0, 0.5], [0.5 + gap, 1.0]])
        before = m.copy()
        a = as_spd(m)
        assert not np.shares_memory(a, m)
        a[0, 0] = 7.0
        np.testing.assert_array_equal(m, before)
        np.testing.assert_array_equal(as_spd(m), 0.5 * m + 0.5 * m.T)


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
    @given(spd_stack_strategy)
    def test_defining_property(self, m):
        r = sym_inv_sqrt(m)
        np.testing.assert_array_equal(r, np.swapaxes(r, -1, -2))
        np.testing.assert_allclose(r @ m @ r, np.broadcast_to(np.eye(m.shape[-1]), m.shape),
                                   atol=1e-7)

    @pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_closed_form_matches_the_eigh_formula(self, kappa, scale):
        # 2 x 2 matrices Q diag(scale, scale / kappa) Q' at 50 rotations Q;
        # both forms lie within about kappa * eps of the exact
        # Q diag(lambda^-1/2) Q', relative to its largest entry
        theta = np.linspace(0.0, np.pi, 50, endpoint=False)
        cos, sin = np.cos(theta), np.sin(theta)
        q = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
        lam = np.array([scale, scale / kappa])
        m = (q * lam) @ np.swapaxes(q, -1, -2)
        m = 0.5 * m + 0.5 * np.swapaxes(m, -1, -2)
        exact = (q / np.sqrt(lam)) @ np.swapaxes(q, -1, -2)
        w, u = np.linalg.eigh(m)
        by_eigh = (u / np.sqrt(w)[..., None, :]) @ np.swapaxes(u, -1, -2)
        by_eigh = 0.5 * (by_eigh + np.swapaxes(by_eigh, -1, -2))
        closed = sym_inv_sqrt(m)
        norm = np.abs(exact).max(axis=(-2, -1))
        bound = np.finfo(float).eps * (kappa + 4.0)
        for r in (closed, by_eigh):
            assert np.all(np.abs(r - exact).max(axis=(-2, -1)) <= bound * norm)
        assert np.all(np.abs(closed - by_eigh).max(axis=(-2, -1)) <= 2.0 * bound * norm)

    def test_one_by_one_is_the_reciprocal_square_root(self):
        m = np.array([1e-300, 0.5, 2.0, 1e300]).reshape(4, 1, 1)
        np.testing.assert_array_equal(sym_inv_sqrt(m), 1.0 / np.sqrt(m))

    @pytest.mark.parametrize("bad", [
        [[0.0]], [[-2.0]],
        [[0.0, 0.0], [0.0, 0.0]], [[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, -1.0]],
        [[1.0, 1.0], [1.0, 1.0]], [[1e-300, 1e200], [1e200, 1.0]],
    ])
    def test_small_matrices_that_are_not_positive_definite_are_refused(self, bad):
        # the 1e200 entries would overflow det = c11 c22 - c12^2 unscaled
        with pytest.raises(NotPositiveDefinite):
            sym_inv_sqrt(np.stack([np.eye(len(bad)), bad]))


class TestAsRows:
    def test_rows_pass_through_as_float(self):
        y = as_rows([[1, 2], [3, 4], [5, 6]], dim=2)
        assert y.dtype == float and y.shape == (3, 2)
        np.testing.assert_array_equal(y, [[1, 2], [3, 4], [5, 6]])

    def test_float_rows_are_not_copied(self):
        rows = np.ones((4, 3))
        assert as_rows(rows) is rows

    def test_series_is_one_column(self):
        np.testing.assert_array_equal(as_rows([1.0, 2.0, 3.0], dim=1), [[1.0], [2.0], [3.0]])

    @pytest.mark.parametrize("shape", [(), (5, 2, 1), (1, 5, 2)])
    def test_other_shapes_are_refused(self, shape):
        with pytest.raises(DimensionMismatch, match=rf"got shape \({', '.join(map(str, shape))}"):
            as_rows(np.zeros(shape))

    @pytest.mark.parametrize("data", [np.zeros((5, 3)), np.zeros(5)])
    def test_width_other_than_dim_is_refused(self, data):
        with pytest.raises(DimensionMismatch, match=r"expected rows \(n, 2\)"):
            as_rows(data, dim=2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_value_is_named(self, value):
        y = np.zeros((6, 3))
        y[4, 2] = value
        y[5, 0] = np.nan
        with pytest.raises(InvalidConfig) as err:
            as_rows(y)
        assert str(err.value) == f"non-finite value {value} at row 4, column 2"

    def test_series_value_is_named_in_column_0(self):
        with pytest.raises(InvalidConfig, match="at row 1, column 0$"):
            as_rows([0.0, np.nan])


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
        with pytest.raises(InvalidConfig):
            sample_mvn([0.0], [[1.0]], 0, make_rng(0))

    def test_rejects_mean_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sample_mvn([0.0, 0.0, 0.0], np.eye(2), 10, make_rng(0))


class TestMakeRng:
    @pytest.mark.parametrize("key", [(), (0,)])
    def test_negative_seed_is_invalid(self, key):
        with pytest.raises(InvalidConfig, match="seed must be a non-negative integer, got -1"):
            make_rng(-1, *key)

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
