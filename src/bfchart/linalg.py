"""Small dense SPD-matrix kernels and reproducible multivariate normal sampling.

Every covariance handled by the package is a small (p x p, p typically 2-10)
symmetric positive definite matrix.  Log determinants and quadratic forms
are taken from a Cholesky factor (``chol_log_det``, ``chol_sq``), never
from an explicit inverse.  Inputs are symmetrized as m/2 + m'/2 before
factorisation to absorb I/O rounding; asymmetry beyond an absolute 1e-10
is rejected.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, NotPositiveDefinite

#: absolute tolerance on |m - m'| before a matrix is rejected as asymmetric
SYM_ATOL = 1e-10


def as_spd(m) -> np.ndarray:
    """Return a validated, symmetrized float64 copy of ``m``.

    Raises DimensionMismatch for non-square input and NotPositiveDefinite
    for non-finite or materially asymmetric input.  Positive definiteness
    itself is only checked where a factorisation is actually taken.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return _symmetrized(a)


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """(a + a')/2 for a matrix or a stack (..., p, p) of finite, symmetric ones,
    taken as a/2 + a'/2: the same bits for normal-range entries, and no overflow."""
    if not np.all(np.isfinite(a)):
        raise NotPositiveDefinite("matrix has non-finite entries")
    at = np.swapaxes(a, -1, -2)
    if a.size and np.max(np.abs(a - at)) > SYM_ATOL:
        raise NotPositiveDefinite("matrix is not symmetric to within 1e-10")
    return 0.5 * a + 0.5 * at


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L L' = m; NotPositiveDefinite on failure."""
    a = as_spd(m)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err


def chol_log_det(L):
    """log det of L L' for each lower Cholesky factor L (..., p, p)."""
    return 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)


def chol_sq(L, d):
    """d' (L L')^{-1} d as the squared norm of L^{-1} d, by forward substitution.

    L (..., p, p) lower triangular and d (..., p) broadcast against each
    other; the loop runs over the p coordinates only."""
    p = d.shape[-1]
    if L.shape[-1] != p:
        raise DimensionMismatch(f"vector length {p} is not the factor's {L.shape[-1]}")
    w = np.empty(np.broadcast_shapes(L.shape[:-1], d.shape))
    for i in range(p):
        acc = d[..., i]
        if i:
            acc = acc - np.sum(L[..., i, :i] * w[..., :i], axis=-1)
        w[..., i] = acc / L[..., i, i]
    return np.sum(w * w, axis=-1)


def sym_inv_sqrt(m) -> np.ndarray:
    """Spectral inverse square root R with R m R = I; R is symmetric.

    ``m`` is one matrix or a stack (..., p, p) of them; every matrix must be
    finite, symmetric to within 1e-10 and positive definite.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    w, u = np.linalg.eigh(_symmetrized(a))
    if np.any(w[..., 0] <= 0.0):
        raise NotPositiveDefinite("matrix has non-positive eigenvalues")
    r = (u / np.sqrt(w)[..., None, :]) @ np.swapaxes(u, -1, -2)
    return 0.5 * (r + np.swapaxes(r, -1, -2))


def sample_mvn(mean, cov, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from N(mean, cov) as mean + L z, deterministic per rng."""
    if n < 1:
        raise DimensionMismatch(f"sample count must be >= 1, got {n}")
    mu = np.asarray(mean, dtype=float)
    L = cholesky(cov)
    if mu.shape != (L.shape[0],):
        raise DimensionMismatch(
            f"mean of shape {mu.shape} does not match covariance dim {L.shape[0]}"
        )
    z = rng.standard_normal((int(n), L.shape[0]))
    return mu + z @ L.T


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic PCG64 stream for ``seed``; extra keys derive independent
    child streams, e.g. ``make_rng(seed, rep)`` for replication ``rep``."""
    if key:
        return np.random.default_rng([int(seed), *(int(k) for k in key)])
    return np.random.default_rng(int(seed))
