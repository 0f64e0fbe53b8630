"""Small dense linear-algebra helpers: eigensolver, distances, the RBF kernel."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

# Rows per block in the n x n passes below: each block's temporaries are this
# many rows of the matrix, not the whole matrix.
_ROW_BLOCK = 256


def eigsh(A: np.ndarray, **kwargs):
    """scipy's ARPACK `eigsh`, imported on the first Lanczos solve: importing
    scipy.sparse takes about 0.2 s, which a process that never needs a top-k
    solve should not pay."""
    from scipy.sparse.linalg import eigsh as arpack_eigsh

    return arpack_eigsh(A, **kwargs)


def symmetric_eig(matrix: np.ndarray, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix with a fixed convention.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted
    non-increasing, eigenvectors in matching columns, and each eigenvector's
    largest-magnitude entry made positive so repeated runs agree in sign.

    With k, only the k algebraically largest pairs are returned. When k is
    small against n they come from ARPACK's restarted Lanczos, started from
    a fixed seeded vector so repeated runs agree; otherwise, and for the
    full spectrum, from a dense LAPACK solve. Raises ConvergenceError when
    Lanczos runs out of iterations.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    scale = _symmetric_scale(A)
    if scale is None:
        raise ValueError("matrix is not symmetric")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"k={k} must lie in [1, {n}]")
    # ARPACK refuses k >= n, and from 2k >= n its default basis of 2k + 1
    # Lanczos vectors would span the whole space; it cannot start on a zero
    # matrix, which is the symmetric matrix with max |A| = 0.
    if k is None or 2 * k >= n or scale == 0.0:
        values, vectors = np.linalg.eigh(A)
    else:
        from scipy.sparse.linalg import ArpackNoConvergence

        # Not the ones vector: a centered Gram maps it to zero, which would
        # start the Krylov space in the null space the caller discards.
        v0 = np.random.default_rng(0).standard_normal(n)
        maxiter = 10 * n  # eigsh's default, named so the error can report it
        try:
            values, vectors = eigsh(A, k=k, which="LA", v0=v0, maxiter=maxiter)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"Lanczos did not find {k} eigenpairs within {maxiter} iterations",
                iterations=maxiter,
            ) from exc
    order = np.argsort(values)[::-1][:k]
    values = values[order]
    vectors = vectors[:, order]
    flip = np.take_along_axis(
        vectors, np.abs(vectors).argmax(axis=0)[None, :], axis=0
    )[0] < 0
    vectors[:, flip] = -vectors[:, flip]
    return values, vectors


def pairwise_sq_dists(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between rows of X and rows of Y."""
    X = np.asarray(X, dtype=float)
    Y = X if Y is None else np.asarray(Y, dtype=float)
    x2 = np.sum(X * X, axis=1)[:, None]
    y2 = np.sum(Y * Y, axis=1)[None, :]
    # In place, x2 + y2 - 2xy as (-2xy) + (x2 + y2): IEEE a - b is a + (-b)
    # and addition commutes, so the bytes are those of the out-of-place form.
    d2 = X @ Y.T
    np.multiply(d2, -2.0, out=d2)
    for start in range(0, d2.shape[0], _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        d2[block] += x2[block] + y2
    return np.maximum(d2, 0.0, out=d2)


def _symmetric_scale(A: np.ndarray) -> float | None:
    """max |A| when np.allclose(A, A.T, rtol=0, atol=1e-8 * max(1, max |A|))
    holds, None when it does not.

    With rtol = 0 the test on a finite pair is |a - b| <= atol, which is
    symmetric in a and b, so only the block pairs on and above the diagonal
    are read: each is A[s:e, t:u] against A[t:u, s:e].T, differenced in one
    reused buffer. A pair whose largest difference is finite and within
    atol passes. Any other pair (a NaN, an infinity, a real asymmetry) is
    settled by np.allclose in both directions, so the answer, equal
    infinities included, is that of the whole-matrix form.
    """
    n = A.shape[0]
    scale = float(max(A.max(initial=0.0), -A.min(initial=0.0)))
    atol = 1e-8 * max(1.0, scale)
    buf = np.empty((min(n, _ROW_BLOCK), min(n, _ROW_BLOCK)))
    for s in range(0, n, _ROW_BLOCK):
        for t in range(s, n, _ROW_BLOCK):
            upper, lower = A[s:s + _ROW_BLOCK, t:t + _ROW_BLOCK], A[t:t + _ROW_BLOCK, s:s + _ROW_BLOCK]
            diff = buf[: upper.shape[0], : upper.shape[1]]
            with np.errstate(invalid="ignore", over="ignore"):
                np.subtract(upper, lower.T, out=diff)
            worst = np.abs(diff, out=diff).max()
            if worst <= atol and np.isfinite(worst):
                continue
            if not (
                np.allclose(upper, lower.T, rtol=0.0, atol=atol) and np.allclose(lower, upper.T, rtol=0.0, atol=atol)
            ):
                return None
    return scale


def _is_symmetric(A: np.ndarray) -> bool:
    """Whether A passes symmetric_eig's symmetry check."""
    return _symmetric_scale(A) is not None


def rbf_gram(X: np.ndarray, Y: np.ndarray | None, gamma: float) -> np.ndarray:
    """RBF Gram exp(-gamma * ||x - y||^2) between rows of X and rows of Y
    (Y None: X), scaled and exponentiated in place on the distance buffer so
    one n x m array is live."""
    K = pairwise_sq_dists(X, Y)
    np.multiply(K, -gamma, out=K)
    return np.exp(K, out=K)


def default_gamma(X: np.ndarray) -> float:
    """Kernel width 1 / (n_features * mean per-feature variance).

    Falls back to 1 / n_features when the data is constant.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[1] == 0:
        raise ValueError("need at least one feature column to derive a kernel width")
    mean_var = float(np.var(X, axis=0).mean())
    if mean_var <= 0.0:
        return 1.0 / X.shape[1]
    return 1.0 / (X.shape[1] * mean_var)
