"""Dimensionality reduction: PCA, kernel PCA, ICA, and ISOMAP.

All four share one surface: fit_reducer builds a ReducerModel holding the
training rows' coordinates; transform maps other rows. Kernel PCA is the
workhorse; PCA is its linear-kernel special case, equal up to column signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConnectivityError, ConvergenceError, ParseError
from .linalg import _ROW_BLOCK, default_gamma, pairwise_sq_dists, rbf_gram, symmetric_eig
from .tables import check_unique_ids, format_row, read_table, write_table

LINEAR = "LINEAR"
RBF = "RBF"

REDUCERS = ("PCA", "KPCA", "ICA", "ISOMAP")

# Eigenvalues at or below max_eigenvalue * this ratio are treated as zero.
_EIG_TOL_RATIO = 1e-10

_ICA_TOL = 1e-4
_ICA_MAX_ITER = 200

# Pairs per block for ISOMAP's edge lengths: a block's two gathered row sets
# stay small against the n x n arrays.
_EDGE_PAIRS = 128


@dataclass(frozen=True)
class KernelSpec:
    kind: str = RBF
    gamma: float | None = None  # None: derive from the data at fit time

    def __post_init__(self):
        if self.kind not in (LINEAR, RBF):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma={self.gamma} must be positive and finite")


def kernel_gram(X: np.ndarray, Y: np.ndarray | None, spec: KernelSpec, gamma: float) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    Y = X if Y is None else np.asarray(Y, dtype=float)
    if spec.kind == LINEAR:
        return X @ Y.T
    return rbf_gram(X, Y, gamma)


def center_kernel(K: np.ndarray) -> np.ndarray:
    """Double-center a Gram matrix so the implied feature map has zero mean.

    K' = K - 1K - K1 + 1K1 with 1 the (1/n)-filled matrix; row and column
    sums of the result vanish and the operation is idempotent.
    """
    K = np.array(K, dtype=float)  # a copy: the caller's matrix is left as it is
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square Gram matrix, got shape {K.shape}")
    return _center_in_place(K, K.mean(axis=0, keepdims=True), K.mean(axis=1, keepdims=True), K.mean())


def _center_in_place(K: np.ndarray, first, second, grand) -> np.ndarray:
    """K - first - second + grand, left to right, written into K.

    first and second are a row of column means and a column of row means, in
    either order; the in-place steps round as the out-of-place expression."""
    K -= first
    K -= second
    K += grand
    return K


@dataclass
class ReducerModel:
    """Fitted reducer state; which fields are set depends on the method."""

    method: str
    n_components: int
    train_embedding: np.ndarray  # coordinates of the rows the model was fitted on
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


def max_components(method: str, n_rows: int, n_features: int) -> int:
    """The most components method can fit on an n_rows x n_features matrix.

    Each reducer centres what it decomposes (the rows for PCA and ICA, the
    Gram for KPCA and ISOMAP), and a centred n_rows-row matrix has rank at
    most n_rows - 1. PCA and ICA are also capped by n_features."""
    if method in ("KPCA", "ISOMAP"):
        return n_rows - 1
    if method in ("PCA", "ICA"):
        return min(n_rows - 1, n_features)
    raise ValueError(f"unknown reducer {method!r}")


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

    k is capped by max_components. KPCA and ISOMAP drop components whose
    eigenvalue is numerically zero and report the shrunken count in the
    model's n_components.
    """
    data = np.asarray(X, dtype=float)
    _validate_fit_input(data, k)
    n, d = data.shape
    limit = max_components(method, n, d)
    if k > limit:
        raise ValueError(f"{method} k={k} exceeds its limit of {limit} components on {n} x {d}")

    if method == "PCA":
        return _fit_pca(data, k)
    if method == "KPCA":
        return _fit_kpca(data, k, kernel or KernelSpec(RBF))
    if method == "ICA":
        return _fit_ica(data, k, seed)
    if method == "ISOMAP":
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
        _center_in_place(
            K, K.mean(axis=1, keepdims=True), model.kernel_col_means[None, :], model.kernel_grand_mean
        )
        values = K @ model.dual_axes
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
    # Full solve: cov is d x d in the vocabulary, cheap at any cohort size, and
    # ICA whitens with these axes, so its rounding reaches the sweep's ICA cells.
    values, vectors = symmetric_eig(cov)
    return ReducerModel(
        method="PCA",
        n_components=k,
        train_embedding=centered @ vectors[:, :k],
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
    _center_in_place(K, col_means[None, :], K.mean(axis=1, keepdims=True), grand_mean)
    values, vectors = symmetric_eig(K, k)
    keep = _leading_positive(values, k, "kernel matrix has no positive eigenvalues; nothing to embed")
    top = values[:keep]
    root = np.sqrt(top)[None, :]
    return ReducerModel(
        method="KPCA",
        n_components=keep,
        train_embedding=vectors[:, :keep] * root,
        eigenvalues=top,
        kernel=kernel,
        gamma=gamma,
        train_X=X.copy(),
        dual_axes=vectors[:, :keep] / root,
        kernel_col_means=col_means,
        kernel_grand_mean=grand_mean,
    )


def _polar(M: np.ndarray) -> np.ndarray:
    """The orthogonal polar factor (M Mᵀ)^(-1/2) M of a square matrix, as U Vᵀ."""
    u, _, vt = np.linalg.svd(M)
    return u @ vt


def _fit_ica(X: np.ndarray, k: int, seed: int) -> ReducerModel:
    """Symmetric FastICA (Hyvärinen, IEEE TNN 1999) with the logcosh contrast on
    PCA-whitened data: all rows of W step at once, then W becomes its polar factor."""
    pca = _fit_pca(X, k)
    values = pca.eigenvalues
    rank_error = f"data rank is below k={k}; cannot whiten"
    if _leading_positive(values, k, rank_error) < k:
        raise ValueError(rank_error)
    whiten = pca.axes / np.sqrt(values)[None, :]
    Z = (X - pca.mean) @ whiten  # unit-variance, uncorrelated columns

    n = Z.shape[0]
    W = _polar(np.random.default_rng(seed).standard_normal((k, k)))
    for _ in range(_ICA_MAX_ITER):
        G = np.tanh(Z @ W.T)
        W_old, W = W, _polar((G.T @ Z) / n - (1.0 - G * G).mean(axis=0)[:, None] * W)
        # Converged when every row kept its direction: |<w_i, w_old_i>| = 1.
        if np.max(np.abs(np.abs(np.sum(W * W_old, axis=1)) - 1.0)) < _ICA_TOL:
            break
    else:
        raise ConvergenceError(
            f"ICA did not converge within {_ICA_MAX_ITER} iterations",
            iterations=_ICA_MAX_ITER,
        )

    unmixing = W @ whiten.T  # sources = (X - mean) @ unmixing.T
    return ReducerModel(
        method="ICA",
        n_components=k,
        train_embedding=(X - pca.mean) @ unmixing.T,
        eigenvalues=values,
        mean=pca.mean,
        unmixing=unmixing,
    )


def _nearest_columns(d2: np.ndarray, k: int) -> np.ndarray:
    """Each row's first k columns in stable (value, column) order, equal to
    np.argsort(d2, axis=1, kind="stable")[:, :k], ranked one row block at a
    time. np.partition finds each row's k-th smallest value, and only the
    columns not above it, ties included, are sorted."""
    cols = np.empty((d2.shape[0], k), dtype=np.intp)
    for start in range(0, d2.shape[0], _ROW_BLOCK):
        block = d2[start:start + _ROW_BLOCK]
        # A copy, so the partitioned block is freed at once.
        kth = np.partition(block, k - 1, axis=1)[:, k - 1:k].copy()
        # "Not above" rather than "at or below": NaN sorts last, so a row
        # whose k-th value is NaN keeps every column.
        keep = np.greater(block, kth)
        rows, candidates = np.nonzero(np.logical_not(keep, out=keep))
        # Stable, and the candidates ascend within each row, so ties stay in column order.
        order = np.lexsort((block[rows, candidates], rows))
        first = np.searchsorted(rows, np.arange(block.shape[0]))
        cols[start:start + block.shape[0]] = candidates[order][first[:, None] + np.arange(k)]
    return cols


def _knn_graph(X: np.ndarray, n_neighbors: int):
    """The symmetrized kNN graph, as a CSR matrix: each row's n_neighbors
    nearest others, in stable (distance, column) order, and the edges that
    point back to it."""
    # Deferred: scipy.sparse adds about 0.2 s to every process that imports the package.
    from scipy.sparse import csr_matrix

    n = X.shape[0]
    d2 = pairwise_sq_dists(X)
    np.fill_diagonal(d2, np.inf)
    cols = _nearest_columns(d2, n_neighbors)
    del d2
    rows = np.repeat(np.arange(n), n_neighbors)
    cols = cols.ravel()
    # Each edge's length from the rows' difference, so identical rows are
    # exactly 0 apart (the Gram form leaves rounding noise).
    weights = np.empty(rows.size)
    for start in range(0, rows.size, _EDGE_PAIRS):
        pairs = slice(start, start + _EDGE_PAIRS)
        diff = X[rows[pairs]] - X[cols[pairs]]
        weights[pairs] = np.sqrt(np.sum(diff * diff, axis=1))
    # Tiny floor keeps zero-distance edges (duplicate rows) explicit in the
    # sparse graph; scipy would otherwise silently drop them.
    weights = np.maximum(weights, 1e-300)
    graph = csr_matrix((weights, (rows, cols)), shape=(n, n))
    return graph.maximum(graph.T)


def _fit_isomap(X: np.ndarray, k: int, n_neighbors: int) -> ReducerModel:
    from scipy.sparse.csgraph import connected_components, shortest_path  # deferred as in _knn_graph

    if n_neighbors < 1:
        raise ValueError("n_neighbors must be positive")
    n_neighbors = min(n_neighbors, X.shape[0] - 1)
    graph = _knn_graph(X, n_neighbors)

    n_comp, _ = connected_components(graph, directed=False)
    if n_comp > 1:
        raise ConnectivityError(n_comp)

    # The graph is symmetric, so Dijkstra over its directed edges takes the
    # minimum over the same edge set as the undirected search, without
    # scipy forming the transpose.
    geo = shortest_path(graph, method="D", directed=True)

    # Classical MDS on the squared geodesics, B = -0.5 * center(geo**2), in place.
    np.square(geo, out=geo)
    _center_in_place(geo, geo.mean(axis=0, keepdims=True), geo.mean(axis=1, keepdims=True), geo.mean())
    B = np.multiply(geo, -0.5, out=geo)
    values, vectors = symmetric_eig(B, k)
    del geo, B  # before the training rows are copied below
    keep = _leading_positive(values, k, "geodesic Gram matrix has no positive eigenvalues")
    return ReducerModel(
        method="ISOMAP",
        n_components=keep,
        train_embedding=vectors[:, :keep] * np.sqrt(values[:keep])[None, :],
        eigenvalues=values[:keep],
        n_neighbors=n_neighbors,
        train_X=X.copy(),
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
