"""Observation rows, small dense SPD-matrix kernels and reproducible sampling.

Every library entry point reads observations through ``as_rows``, the one
rule for them.  Every covariance handled by the package is a small (p x p,
p typically 2-10) symmetric positive definite matrix.  Log determinants and
quadratic forms are taken from a Cholesky factor (``chol_log_det``,
``chol_sq``), never from an explicit inverse.  Inputs are symmetrized as
m/2 + m'/2 before factorisation to absorb I/O rounding (an exactly
symmetric input is taken as it is); asymmetry beyond an absolute 1e-10 is
rejected.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, InvalidConfig, NotPositiveDefinite

#: absolute tolerance on |m - m'| before a matrix is rejected as asymmetric
SYM_ATOL = 1e-10


def as_rows(data, dim: int | None = None) -> np.ndarray:
    """``data`` as float rows (n, p); a 1-D series is one column.

    Raises DimensionMismatch for any other shape, or for a width other than
    ``dim`` when it is given, and InvalidConfig naming the 0-based row and
    column of the first NaN or infinite value.
    """
    a = np.asarray(data, dtype=float)
    y = a[:, None] if a.ndim == 1 else a
    if y.ndim != 2 or dim is not None and y.shape[1] != dim:
        want = "p" if dim is None else dim
        raise DimensionMismatch(f"expected rows (n, {want}), got shape {a.shape}")
    if not np.isfinite(y).all():
        row, col = np.argwhere(~np.isfinite(y))[0]
        raise InvalidConfig(f"non-finite value {y[row, col]} at row {row}, column {col}")
    return y


def as_spd(m) -> np.ndarray:
    """Return a validated, symmetrized float64 copy of ``m``.

    Raises DimensionMismatch for non-square input and NotPositiveDefinite
    for non-finite or materially asymmetric input.  Positive definiteness
    itself is only checked where a factorisation is actually taken.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return _symmetrized(a)


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """(a + a')/2 for a matrix or a stack (..., p, p) of finite, symmetric ones,
    taken as a/2 + a'/2: the same bits for normal-range entries, and no overflow.

    An exactly symmetric ``a`` is returned itself, not copied; the filter's
    covariance estimates always are.  (a/2 + a'/2 would give its bits back
    anyway, except that it rounds subnormal entries.)"""
    if not np.all(np.isfinite(a)):
        raise NotPositiveDefinite("matrix has non-finite entries")
    at = np.swapaxes(a, -1, -2)
    gap = np.max(np.abs(a - at)) if a.size else 0.0
    if gap > SYM_ATOL:
        raise NotPositiveDefinite("matrix is not symmetric to within 1e-10")
    if gap == 0.0:
        return a
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
    finite, symmetric to within 1e-10 and positive definite.  Matrices of
    size 1 and 2 are inverted in closed form (``_inv_sqrt_small``), larger
    ones from their eigenpairs (``spd_eigh``) as U diag(w^-1/2) U'.
    """
    a = _square_stack(m)
    if a.shape[-1] <= 2:
        return _inv_sqrt_small(_symmetrized(a))
    w, u = spd_eigh(a)
    r = (u / np.sqrt(w)[..., None, :]) @ np.swapaxes(u, -1, -2)
    return 0.5 * (r + np.swapaxes(r, -1, -2))


def spd_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w (ascending) and orthonormal eigenvectors u of each matrix
    of a stack (..., p, p), from one batched ``eigh``.

    Every matrix must be finite, symmetric to within 1e-10 and positive
    definite (every w > 0); otherwise NotPositiveDefinite.
    """
    w, u = np.linalg.eigh(_symmetrized(_square_stack(m)))
    if np.any(w[..., 0] <= 0.0):
        raise NotPositiveDefinite("matrix has non-positive eigenvalues")
    return w, u


#: sweeps after which ``jacobi_eigh`` gives up on a stack that has not
#: converged; 3 x 3 and 4 x 4 stacks of condition number up to 1e15 take at
#: most 6, the last of which rotates nothing
JACOBI_SWEEPS = 12


def jacobi_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w (p, n) and orthonormal eigenvectors v (p, p, n) of each
    matrix of a stack (n, p, p), by cyclic Jacobi rotations vectorised across
    the stack; the stack is the last axis, and w is not sorted.

    Row i of matrix k is v[i, :, k], and column j (the eigenvector of
    w[j, k]) is v[:, j, k].  Each matrix is held as its upper triangle,
    p (p + 1) / 2 contiguous n-vectors, scaled by the power of 2 that brings
    its largest entry into [1/2, 1), so that no product overflows.  A rotation
    is skipped wherever |a_ij| <= eps sqrt(|a_ii a_jj|), the test under
    which Jacobi keeps every eigenvalue to high relative accuracy (Demmel
    and Veselic, 1992), and the sweeps stop when every matrix passes it for
    every pair.  Every matrix must be finite, symmetric to within 1e-10 and
    positive definite (every w > 0); otherwise NotPositiveDefinite, as for
    a stack that has not converged after ``JACOBI_SWEEPS`` sweeps.
    """
    a = _symmetrized(_square_stack(m))
    if a.ndim != 3:
        raise DimensionMismatch(f"expected a stack (n, p, p), got shape {a.shape}")
    n, p = a.shape[0], a.shape[-1]
    rows, cols = np.triu_indices(p)
    at = {(i, j): k for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))}
    packed = np.ascontiguousarray(a[:, rows, cols].T)
    exponent = np.frexp(np.max(np.abs(packed), axis=0))[1]
    np.ldexp(packed, -exponent, out=packed)
    v = np.zeros((p, p, n))
    for i in range(p):
        v[i, i] = 1.0
    eps2, tiny = np.finfo(float).eps ** 2, np.finfo(float).tiny
    t, s, tau, x, y = np.empty((5, n))
    vx, vy = np.empty((2, p, n))
    rotate = np.empty(n, dtype=bool)
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for i, j in pairs:
            # rotate where a_ij^2 > eps^2 |a_ii a_jj|; elsewhere a_ij is
            # negligible and set to 0, and t = 0 leaves the rest as it is
            aii, ajj, aij = packed[at[i, i]], packed[at[j, j]], packed[at[i, j]]
            np.multiply(aii, ajj, out=x)
            np.abs(x, out=x)
            x *= eps2
            np.multiply(aij, aij, out=y)
            np.greater(y, x, out=rotate)
            if not rotate.any():
                continue
            rotated = True
            aij *= rotate
            # t = tan of the angle that zeroes a_ij, the smaller root:
            # sign(d) 2 a_ij / (|d| + (d^2 + 4 a_ij^2)^1/2) with d = a_jj - a_ii;
            # rotations keep every entry below p, so no square overflows, and
            # the denominator is 0 only where a_ij = 0, which gives t = 0
            np.subtract(ajj, aii, out=x)
            y *= 4.0
            np.multiply(x, x, out=t)
            y += t
            np.sqrt(y, out=y)
            np.copysign(2.0, x, out=t)
            t *= aij
            np.abs(x, out=x)
            x += y
            np.maximum(x, tiny, out=x)
            t /= x
            np.multiply(t, aij, out=x)
            aii -= x
            ajj += x
            aij.fill(0.0)
            # s = t / r and tau = s / (1 + c) = t / (1 + r) with r = (1 + t^2)^1/2
            np.multiply(t, t, out=x)
            x += 1.0
            np.sqrt(x, out=x)
            np.divide(t, x, out=s)
            x += 1.0
            np.divide(t, x, out=tau)
            for r in range(p):
                if r != i and r != j:
                    _rotate(packed[at[min(r, i), max(r, i)]],
                            packed[at[min(r, j), max(r, j)]], s, tau, x, y)
            _rotate(v[:, i], v[:, j], s, tau, vx, vy)
        if not rotated:
            break
    else:
        raise NotPositiveDefinite(
            f"eigenpairs did not converge in {JACOBI_SWEEPS} Jacobi sweeps")
    w = np.ldexp(packed[[at[i, i] for i in range(p)]], exponent)
    if not np.all(w > 0.0):
        raise NotPositiveDefinite("matrix has non-positive eigenvalues")
    return w, v


def _rotate(ui, uj, s, tau, x, y) -> None:
    """ui, uj <- c ui - s uj, s ui + c uj in place, written as the increments
    ui - s (uj + tau ui) and uj + s (ui - tau uj) with tau = s / (1 + c).

    For a small angle c rounds to 1, and c ui - s uj would stretch every
    vector it rotates by about (1 + t^2)^1/2, a bias that sums over the
    sweeps; the increments carry the -t^2/2 ui term instead.  x and y are
    work arrays of the vectors' shape."""
    np.multiply(tau, ui, out=x)
    x += uj
    x *= s
    np.multiply(tau, uj, out=y)
    np.subtract(ui, y, out=y)
    y *= s
    ui -= x
    uj += y


def _square_stack(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    return a


def _inv_sqrt_small(a: np.ndarray) -> np.ndarray:
    """``sym_inv_sqrt`` of a stack of symmetric 1 x 1 or 2 x 2 matrices.

    For 2 x 2 C with s = sqrt(det C) and t = sqrt(tr C + 2s), the square
    root is (C + sI) / t, and its inverse t adj(C + sI) / det(C + sI) is
    adj(C + sI) / (s t), since det(C + sI) = s t^2.  Each matrix is first
    divided by its largest entry k, so that no product overflows, and the
    result by sqrt(k).  C is positive definite exactly when c11 > 0 and
    det C > 0.  A 1 x 1 matrix c gives 1 / sqrt(c), which is what ``eigh``
    gives too.
    """
    if a.shape[-1] == 1:
        if np.any(a <= 0.0):
            raise NotPositiveDefinite("matrix has non-positive eigenvalues")
        return 1.0 / np.sqrt(a)
    c11, c12, c22 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    if np.any(c11 <= 0.0):
        raise NotPositiveDefinite("matrix has non-positive eigenvalues")
    k = np.maximum(np.maximum(c11, np.abs(c22)), np.abs(c12))
    c11, c12, c22 = c11 / k, c12 / k, c22 / k
    det = c11 * c22 - c12 * c12
    if np.any(det <= 0.0):
        raise NotPositiveDefinite("matrix has non-positive eigenvalues")
    s = np.sqrt(det)
    f = 1.0 / (s * np.sqrt(c11 + c22 + 2.0 * s) * np.sqrt(k))
    r = np.empty(a.shape)
    r[..., 0, 0] = (c22 + s) * f
    r[..., 0, 1] = r[..., 1, 0] = -c12 * f
    r[..., 1, 1] = (c11 + s) * f
    return r


def sample_mvn(mean, cov, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from N(mean, cov) as mean + L z, deterministic per rng."""
    if n < 1:
        raise InvalidConfig(f"sample count must be >= 1, got {n}")
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
    child streams, e.g. ``make_rng(seed, rep)`` for replication ``rep``.
    Raises InvalidConfig for a negative seed."""
    if seed < 0:
        raise InvalidConfig(f"seed must be a non-negative integer, got {seed}")
    if key:
        return np.random.default_rng([int(seed), *(int(k) for k in key)])
    return np.random.default_rng(int(seed))
