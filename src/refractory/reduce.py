"""Dimensionality reduction: PCA, kernel PCA, ICA, and ISOMAP.

All four share one surface: fit_reducer builds a ReducerModel, transform maps
rows through it. Kernel PCA is the workhorse; PCA is its linear-kernel
special case and the two agree on training data up to column signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import ConnectivityError, ConvergenceError, ParseError
from .linalg import pairwise_sq_dists, symmetric_eig
from .tables import check_unique_ids, format_row, read_table, write_table

LINEAR = "LINEAR"
RBF = "RBF"

REDUCERS = ("PCA", "KPCA", "ICA", "ISOMAP")

# Eigenvalues at or below max_eigenvalue * this ratio are treated as zero.
_EIG_TOL_RATIO = 1e-10

_ICA_TOL = 1e-4
_ICA_MAX_ITER = 200


def default_gamma(X: np.ndarray) -> float:
    """Kernel width 1 / (n_features * mean per-feature variance).

    Falls back to 1 / n_features when the data is constant.
    """
    X = np.asarray(X, dtype=float)
    mean_var = float(np.var(X, axis=0).mean())
    if mean_var <= 0.0:
        return 1.0 / X.shape[1]
    return 1.0 / (X.shape[1] * mean_var)


@dataclass(frozen=True)
class KernelSpec:
    kind: str = RBF
    gamma: float | None = None  # None: derive from the data at fit time

    def __post_init__(self):
        if self.kind not in (LINEAR, RBF):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> float:
    """exp(-gamma * ||a - b||^2) for two vectors."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.exp(-gamma * np.dot(diff, diff)))


def kernel_gram(X: np.ndarray, Y: np.ndarray | None, spec: KernelSpec, gamma: float) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    Y = X if Y is None else np.asarray(Y, dtype=float)
    if spec.kind == LINEAR:
        return X @ Y.T
    return np.exp(-gamma * pairwise_sq_dists(X, Y))


def center_kernel(K: np.ndarray) -> np.ndarray:
    """Double-center a Gram matrix so the implied feature map has zero mean.

    K' = K - 1K - K1 + 1K1 with 1 the (1/n)-filled matrix; row and column
    sums of the result vanish and the operation is idempotent.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square Gram matrix, got shape {K.shape}")
    col = K.mean(axis=0, keepdims=True)
    row = K.mean(axis=1, keepdims=True)
    grand = K.mean()
    return K - col - row + grand


@dataclass
class ReducerModel:
    """Fitted reducer state; which fields are set depends on the method."""

    method: str
    n_components: int
    eigenvalues: np.ndarray | None = None
    # PCA
    mean: np.ndarray | None = None
    axes: np.ndarray | None = None
    # KPCA
    kernel: KernelSpec | None = None
    gamma: float | None = None
    train_X: np.ndarray | None = None
    dual_axes: np.ndarray | None = None      # eigenvectors scaled by 1/sqrt(eigenvalue)
    kernel_col_means: np.ndarray | None = None
    kernel_grand_mean: float | None = None
    # ICA
    unmixing: np.ndarray | None = None       # maps centered rows to sources
    # ISOMAP
    n_neighbors: int | None = None
    train_embedding: np.ndarray | None = None


@dataclass
class Embedding:
    """Reduced coordinates, one row per input row."""

    values: np.ndarray
    method: str
    row_ids: list[str] | None = None


def _validate_fit_input(X: np.ndarray, k: int) -> None:
    if X.ndim != 2:
        raise ValueError("expected a 2-dimensional matrix")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit a reducer")
    if not np.isfinite(X).all():
        raise ValueError("matrix contains non-finite values")
    if k < 1:
        raise ValueError("k must be at least 1")


def fit_reducer(
    method: str,
    X,
    k: int,
    *,
    kernel: KernelSpec | None = None,
    n_neighbors: int = 10,
    seed: int = 0,
) -> ReducerModel:
    """Fit one of PCA, KPCA, ICA, ISOMAP with k output components.

    k is capped by n_rows - 1 for the kernel methods and by
    min(n_rows, n_features) for PCA/ICA. KPCA drops components whose
    eigenvalue is numerically zero and reports the shrunken count in the
    model's n_components.
    """
    data = np.asarray(X, dtype=float)
    n, d = data.shape if data.ndim == 2 else (0, 0)
    _validate_fit_input(data, k)

    if method == "PCA":
        if k > min(n, d):
            raise ValueError(f"PCA k={k} exceeds min(n_samples, n_features)={min(n, d)}")
        return _fit_pca(data, k)
    if method == "KPCA":
        if k > n - 1:
            raise ValueError(f"KPCA k={k} exceeds n_samples - 1 = {n - 1}")
        return _fit_kpca(data, k, kernel or KernelSpec(RBF))
    if method == "ICA":
        if k > min(n, d):
            raise ValueError(f"ICA k={k} exceeds min(n_samples, n_features)={min(n, d)}")
        return _fit_ica(data, k, seed)
    if method == "ISOMAP":
        if k > n - 1:
            raise ValueError(f"ISOMAP k={k} exceeds n_samples - 1 = {n - 1}")
        return _fit_isomap(data, k, n_neighbors)
    raise ValueError(f"unknown reducer {method!r}")


def transform(model: ReducerModel, X) -> Embedding:
    """Map rows through a fitted reducer.

    ISOMAP has no out-of-sample extension here: it only accepts the exact
    training matrix and returns the stored embedding.
    """
    data = np.asarray(X, dtype=float)
    if data.ndim != 2:
        raise ValueError("expected a 2-dimensional matrix")

    if model.method == "PCA":
        values = (data - model.mean) @ model.axes
    elif model.method == "KPCA":
        K = kernel_gram(data, model.train_X, model.kernel, model.gamma)
        centered = (
            K
            - K.mean(axis=1, keepdims=True)
            - model.kernel_col_means[None, :]
            + model.kernel_grand_mean
        )
        values = centered @ model.dual_axes
    elif model.method == "ICA":
        values = (data - model.mean) @ model.unmixing.T
    elif model.method == "ISOMAP":
        if model.train_X.shape != data.shape or not np.array_equal(model.train_X, data):
            raise ValueError("ISOMAP can only transform the rows it was fitted on")
        values = model.train_embedding.copy()
    else:
        raise ValueError(f"unknown reducer {model.method!r}")
    return Embedding(np.asarray(values, dtype=float), model.method)


def _leading_positive(values: np.ndarray, k: int, error: str) -> int:
    """How many of the first k descending eigenvalues lie above
    max(values[0], 0) * _EIG_TOL_RATIO; raises ValueError(error) when none."""
    keep = int(np.count_nonzero(values[:k] > max(values[0], 0.0) * _EIG_TOL_RATIO))
    if keep == 0:
        raise ValueError(error)
    return keep


def _fit_pca(X: np.ndarray, k: int) -> ReducerModel:
    mean = X.mean(axis=0)
    centered = X - mean
    cov = (centered.T @ centered) / X.shape[0]
    values, vectors = symmetric_eig(cov)
    return ReducerModel(
        method="PCA",
        n_components=k,
        eigenvalues=values[:k],
        mean=mean,
        axes=vectors[:, :k],
    )


def _fit_kpca(X: np.ndarray, k: int, kernel: KernelSpec) -> ReducerModel:
    gamma = kernel.gamma
    if gamma is None:
        gamma = default_gamma(X) if kernel.kind == RBF else 0.0
    K = kernel_gram(X, None, kernel, gamma)
    col_means = K.mean(axis=0)
    grand_mean = float(K.mean())
    centered = center_kernel(K)
    values, vectors = symmetric_eig(centered)
    keep = _leading_positive(values, k, "kernel matrix has no positive eigenvalues; nothing to embed")
    top = values[:keep]
    dual_axes = vectors[:, :keep] / np.sqrt(top)[None, :]
    return ReducerModel(
        method="KPCA",
        n_components=keep,
        eigenvalues=top,
        kernel=kernel,
        gamma=gamma,
        train_X=X.copy(),
        dual_axes=dual_axes,
        kernel_col_means=col_means,
        kernel_grand_mean=grand_mean,
    )


def _fit_ica(X: np.ndarray, k: int, seed: int) -> ReducerModel:
    """FastICA by deflation with the logcosh contrast on PCA-whitened data."""
    pca = _fit_pca(X, k)
    values = pca.eigenvalues
    if values[k - 1] <= max(values[0], 0.0) * _EIG_TOL_RATIO:
        raise ValueError(f"data rank is below k={k}; cannot whiten")
    whiten = pca.axes / np.sqrt(values)[None, :]
    Z = (X - pca.mean) @ whiten  # unit-variance, uncorrelated columns

    rng = np.random.default_rng(seed)
    W = np.zeros((k, k))
    n = Z.shape[0]
    for i in range(k):
        w = rng.standard_normal(k)
        w /= np.linalg.norm(w)
        for iteration in range(1, _ICA_MAX_ITER + 1):
            u = Z @ w
            g = np.tanh(u)
            g_prime = 1.0 - g * g
            w_new = (Z.T @ g) / n - g_prime.mean() * w
            w_new -= W[:i].T @ (W[:i] @ w_new)
            norm = np.linalg.norm(w_new)
            if norm < 1e-12:
                w_new = rng.standard_normal(k)
                w_new -= W[:i].T @ (W[:i] @ w_new)
                norm = np.linalg.norm(w_new)
            w_new /= norm
            if abs(abs(np.dot(w_new, w)) - 1.0) < _ICA_TOL:
                w = w_new
                break
            w = w_new
        else:
            raise ConvergenceError(
                f"ICA component {i} did not converge within {_ICA_MAX_ITER} iterations",
                iterations=_ICA_MAX_ITER,
            )
        W[i] = w

    unmixing = W @ whiten.T  # sources = (X - mean) @ unmixing.T
    return ReducerModel(
        method="ICA",
        n_components=k,
        eigenvalues=values,
        mean=pca.mean,
        unmixing=unmixing,
    )


def _fit_isomap(X: np.ndarray, k: int, n_neighbors: int) -> ReducerModel:
    if n_neighbors < 1:
        raise ValueError("n_neighbors must be positive")
    n = X.shape[0]
    n_neighbors = min(n_neighbors, n - 1)
    d2 = pairwise_sq_dists(X)
    dist = np.sqrt(d2)

    # Symmetrized kNN graph: keep each row's n_neighbors nearest others.
    ranked = d2.copy()
    np.fill_diagonal(ranked, np.inf)
    order = np.argsort(ranked, axis=1, kind="stable")
    rows = np.repeat(np.arange(n), n_neighbors)
    cols = order[:, :n_neighbors].ravel()
    # Tiny floor keeps zero-distance edges (duplicate rows) explicit in the
    # sparse graph; scipy would otherwise silently drop them.
    weights = np.maximum(dist[rows, cols], 1e-300)
    graph = csr_matrix((weights, (rows, cols)), shape=(n, n))
    graph = graph.maximum(graph.T)

    n_comp, _ = connected_components(graph, directed=False)
    if n_comp > 1:
        raise ConnectivityError(n_comp)

    geo = shortest_path(graph, method="D", directed=False)

    # Classical MDS on the squared geodesics.
    B = -0.5 * center_kernel(geo**2)
    values, vectors = symmetric_eig(B)
    keep = _leading_positive(values, k, "geodesic Gram matrix has no positive eigenvalues")
    embedding = vectors[:, :keep] * np.sqrt(values[:keep])[None, :]
    return ReducerModel(
        method="ISOMAP",
        n_components=keep,
        eigenvalues=values[:keep],
        n_neighbors=n_neighbors,
        train_X=X.copy(),
        train_embedding=embedding,
    )


def write_embedding(embedding: Embedding, path: str | Path) -> None:
    """Embedding CSV: patient_id, then c0..c{k-1} at 17 significant digits."""
    n, k = embedding.values.shape
    ids = embedding.row_ids if embedding.row_ids is not None else [f"row{i:05d}" for i in range(n)]
    lines = (format_row([pid, *row]) for pid, row in zip(ids, embedding.values.tolist()))
    write_table(path, ",".join(["patient_id", *(f"c{i}" for i in range(k))]), lines)


def read_embedding(path: str | Path, method: str = "KPCA") -> Embedding:
    header, lines = read_table(path)
    row_ids = []
    values = np.empty((len(lines), len(header) - 1))
    for row, line in enumerate(lines):
        pid, *cells = line.split(",")
        row_ids.append(pid)
        try:
            values[row] = [float(v) for v in cells]
        except ValueError as exc:
            raise ParseError(row + 2, str(exc)) from exc
    check_unique_ids(row_ids)
    return Embedding(values, method, row_ids)
