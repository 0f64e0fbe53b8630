"""Clustering methods and the reduction-by-method sweep grid.

Four methods behind one call: k-means (k-means++ seeding, Lloyd updates),
a diagonal-covariance Gaussian mixture fit by EM, normalized-Laplacian
spectral clustering, and Ward agglomeration. clustering_sweep runs every
(reduction, method) pair and scores the labels against cohort labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import reduce as reduce_mod
from .linalg import default_gamma, pairwise_sq_dists, rbf_gram, symmetric_eig
from .metrics import adjusted_mutual_info, adjusted_rand
from .tables import format_row, write_table

KMEANS = "KMEANS"
GMM = "GMM"
SPECTRAL = "SPECTRAL"
AGGLOMERATIVE = "AGGLOMERATIVE"

CLUSTER_METHODS = (KMEANS, GMM, SPECTRAL, AGGLOMERATIVE)

SWEEP_REDUCTIONS = ("none", "PCA", "ICA", "KPCA", "ISOMAP")

_GMM_VAR_FLOOR = 1e-6
_GMM_TOL = 1e-6
_GMM_MAX_ITER = 200
_LLOYD_MAX_ITER = 300


@dataclass(frozen=True)
class ClusterConfig:
    method: str
    n_clusters: int = 2
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if self.method not in CLUSTER_METHODS:
            raise ValueError(f"unknown clustering method {self.method!r}")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass
class ClusterAssignment:
    """Labels plus the method's objective and its per-iteration trace.

    The trace is the Lloyd inertia path for KMEANS (and for SPECTRAL's
    k-means stage), one entry per distance pass, so a converged run ends
    on the pass whose labels repeated; the log-likelihood path for GMM;
    and the merge-cost sequence for AGGLOMERATIVE.
    """

    labels: np.ndarray
    objective: float
    trace: list[float] = field(default_factory=list)


def fit_clusters(config: ClusterConfig, X) -> ClusterAssignment:
    data = np.asarray(X, dtype=float)
    if data.ndim != 2:
        raise ValueError("expected a 2-dimensional matrix")
    if not np.isfinite(data).all():
        raise ValueError("matrix contains non-finite values")
    if config.n_clusters > data.shape[0]:
        raise ValueError(
            f"n_clusters={config.n_clusters} exceeds the number of rows {data.shape[0]}"
        )
    fit = {KMEANS: _kmeans, GMM: _gmm, SPECTRAL: _spectral, AGGLOMERATIVE: _agglomerative}[config.method]
    return fit(data, config)


# ---------------------------------------------------------------------------
# k-means


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i] = X[rng.integers(n)]
            continue
        centers[i] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[i]) ** 2, axis=1))
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray) -> ClusterAssignment:
    """Lloyd passes from centers, until one repeats the last pass's labels or
    follows _LLOYD_MAX_ITER center updates. The trace has each pass's inertia."""
    rows = np.arange(X.shape[0])
    labels = np.full(X.shape[0], -1)
    trace: list[float] = []
    for updates in range(_LLOYD_MAX_ITER + 1):
        d2 = pairwise_sq_dists(X, centers)
        new_labels = d2.argmin(axis=1)
        trace.append(float(d2[rows, new_labels].sum()))
        if updates == _LLOYD_MAX_ITER or np.array_equal(new_labels, labels):
            return ClusterAssignment(new_labels, trace[-1], trace)
        labels = new_labels
        for i in range(centers.shape[0]):
            members = labels == i
            if members.any():
                centers[i] = X[members].mean(axis=0)
            else:
                # Re-seed an emptied cluster on the point farthest from its center.
                worst = int(d2[rows, labels].argmax())
                centers[i] = X[worst]
                labels[worst] = i


def _kmeans(X: np.ndarray, config: ClusterConfig) -> ClusterAssignment:
    """Best of `restarts` k-means++ / Lloyd runs: the first with the lowest inertia."""
    def run(restart: int) -> ClusterAssignment:
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, restart)))
        return _lloyd(X, _kmeans_pp_init(X, config.n_clusters, rng))

    return min(map(run, range(config.restarts)), key=lambda fit: fit.objective)


# ---------------------------------------------------------------------------
# Gaussian mixture, diagonal covariances


def _log_gaussian_diag(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    # (n, k) log densities for diagonal Gaussians.
    n, d = X.shape
    out = np.empty((n, means.shape[0]))
    for i in range(means.shape[0]):
        diff2 = (X - means[i]) ** 2
        out[:, i] = -0.5 * (
            d * np.log(2.0 * np.pi) + np.log(variances[i]).sum() + (diff2 / variances[i]).sum(axis=1)
        )
    return out


def _gmm(X: np.ndarray, config: ClusterConfig) -> ClusterAssignment:
    k = config.n_clusters
    labels = _kmeans(X, config).labels
    means = np.empty((k, X.shape[1]))
    variances = np.empty((k, X.shape[1]))
    weights = np.empty(k)
    for i in range(k):
        members = labels == i
        if not members.any():
            members = np.ones(X.shape[0], dtype=bool)
        means[i] = X[members].mean(axis=0)
        variances[i] = np.maximum(X[members].var(axis=0), _GMM_VAR_FLOOR)
        weights[i] = members.mean()
    weights = np.maximum(weights, 1e-12)
    weights /= weights.sum()

    trace: list[float] = []
    resp = None
    for _ in range(_GMM_MAX_ITER):
        log_prob = _log_gaussian_diag(X, means, variances) + np.log(weights)[None, :]
        log_norm = _logsumexp(log_prob)
        log_likelihood = float(log_norm.sum())
        resp = np.exp(log_prob - log_norm[:, None])
        if trace and log_likelihood - trace[-1] < _GMM_TOL:
            trace.append(log_likelihood)
            break
        trace.append(log_likelihood)
        mass = resp.sum(axis=0)
        mass = np.maximum(mass, 1e-12)
        weights = mass / mass.sum()
        means = (resp.T @ X) / mass[:, None]
        for i in range(k):
            diff2 = (X - means[i]) ** 2
            variances[i] = np.maximum((resp[:, i] @ diff2) / mass[i], _GMM_VAR_FLOOR)
    labels = resp.argmax(axis=1)
    return ClusterAssignment(labels, trace[-1], trace)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    peak = a.max(axis=1, keepdims=True)
    return (peak + np.log(np.exp(a - peak).sum(axis=1, keepdims=True)))[:, 0]


# ---------------------------------------------------------------------------
# Spectral clustering (normalized Laplacian, k-means on row-normalized rows)


def _spectral(X: np.ndarray, config: ClusterConfig) -> ClusterAssignment:
    affinity = rbf_gram(X, None, default_gamma(X))
    np.fill_diagonal(affinity, 0.0)
    degrees = affinity.sum(axis=1)
    degrees = np.maximum(degrees, 1e-300)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    affinity *= inv_sqrt[:, None]
    affinity *= inv_sqrt[None, :]
    _, rows = symmetric_eig(affinity, config.n_clusters)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows / np.maximum(norms, 1e-300)
    return _kmeans(rows, config)


# ---------------------------------------------------------------------------
# Ward agglomeration


def _condensed_distances(X: np.ndarray) -> np.ndarray:
    """The Euclidean distances between the rows of X in scipy's condensed
    order, the upper triangle row by row, bit-equal to
    squareform(sqrt(pairwise_sq_dists(X))).

    The triangle is packed into the front of the square buffer, which then
    shrinks in place, so one n x n array is the peak.
    """
    n = X.shape[0]
    dist = pairwise_sq_dists(X)
    dist.shape = (n * n,)
    end = 0
    for i in range(n - 1):
        # Row i's target ends before row i + 1's source, so no row is
        # overwritten before it moves; numpy copies through a buffer where
        # a row's target overlaps its own source.
        dist[end:end + n - 1 - i] = dist[i * n + i + 1:(i + 1) * n]
        end += n - 1 - i
    # No view of the buffer is alive here: the row copies above are
    # temporaries. So the shrink skips numpy's reference check, which also
    # counts the frame snapshot a sys.settrace or sys.setprofile hook holds
    # and would refuse under a profiler or debugger.
    dist.resize(end, refcheck=False)
    return np.sqrt(dist, out=dist)


def _agglomerative(X: np.ndarray, config: ClusterConfig) -> ClusterAssignment:
    """Ward linkage by scipy's nearest-neighbour chain, cut at n_clusters.

    The trace holds each merge's Ward cost, the rise in within-cluster sum
    of squares, which is height**2 / 2. Tied heights merge in scipy's order.
    Clusters are numbered by their smallest member index.
    """
    # Deferred: scipy.cluster adds import time and memory to every process.
    from scipy.cluster.hierarchy import linkage

    n = X.shape[0]
    k = config.n_clusters
    if n == k:  # nothing merges, and linkage needs two rows
        return ClusterAssignment(np.arange(n), 0.0, [])
    merges = linkage(_condensed_distances(X), method="ward")[: n - k]
    root = np.arange(2 * n - k)
    # Walk the merges backwards so every node takes its final cluster's id.
    for node, (a, b) in reversed(list(enumerate(merges[:, :2].astype(np.int64).tolist(), n))):
        root[a] = root[b] = root[node]
    _, first, inverse = np.unique(root[:n], return_index=True, return_inverse=True)
    labels = np.unique(first[inverse], return_inverse=True)[1]
    merge_costs = (0.5 * merges[:, 2] ** 2).tolist()
    return ClusterAssignment(labels, float(sum(merge_costs)), merge_costs)


# ---------------------------------------------------------------------------
# The sweep grid

SWEEP_HEADER = "reduction,method,adjusted_rand,adjusted_mutual_info,status"


@dataclass(frozen=True)
class SweepCell:
    reduction: str
    method: str
    adjusted_rand: float | None
    adjusted_mutual_info: float | None
    status: str


def clustering_sweep(
    X,
    labels: Sequence,
    *,
    reductions: Sequence[str] = SWEEP_REDUCTIONS,
    methods: Sequence[str] = CLUSTER_METHODS,
    k: int = 20,
    n_clusters: int = 2,
    n_neighbors: int = 10,
    seed: int = 0,
    restarts: int = 10,
) -> list[SweepCell]:
    """Cluster every reduction of X with every method and score against labels.

    Each reducer fits k components, capped at its own reduce.max_components
    on X. A failing cell (for example a reducer that cannot converge) is
    recorded with its error message instead of aborting the grid.
    """
    data = np.asarray(X, dtype=float)
    y = np.asarray(labels)
    if y.shape[0] != data.shape[0]:
        raise ValueError("labels length does not match the matrix")

    cells: list[SweepCell] = []
    for r_idx, reduction in enumerate(reductions):
        if reduction == "none":
            reduced, fit_error = data, None
        else:
            try:
                fit_seed = _derived_seed(seed, r_idx, 0)
                k_fit = min(k, reduce_mod.max_components(reduction, data.shape[0], data.shape[-1]))
                model = reduce_mod.fit_reducer(reduction, data, k_fit, n_neighbors=n_neighbors, seed=fit_seed)
                reduced = model.train_embedding
                fit_error = None
            except Exception as exc:  # recorded, not raised: the grid must finish
                reduced, fit_error = None, f"failed: {exc}"
        for m_idx, method in enumerate(methods):
            if fit_error is not None:
                cells.append(SweepCell(reduction, method, None, None, fit_error))
                continue
            try:
                config = ClusterConfig(
                    method=method,
                    n_clusters=n_clusters,
                    seed=_derived_seed(seed, r_idx, m_idx + 1),
                    restarts=restarts,
                )
                assignment = fit_clusters(config, reduced)
                ari = adjusted_rand(y, assignment.labels)
                ami = adjusted_mutual_info(y, assignment.labels)
                cells.append(SweepCell(reduction, method, ari, ami, "ok"))
            except Exception as exc:
                cells.append(SweepCell(reduction, method, None, None, f"failed: {exc}"))
    return cells


def _derived_seed(seed: int, r_idx: int, m_idx: int) -> int:
    return int(np.random.SeedSequence((seed, r_idx, m_idx)).generate_state(1)[0])


def write_sweep(cells: Sequence[SweepCell], path: str | Path) -> None:
    rows = (
        (c.reduction, c.method, c.adjusted_rand, c.adjusted_mutual_info,
         c.status.replace(",", ";").replace("\n", " "))
        for c in cells
    )
    write_table(path, SWEEP_HEADER, map(format_row, rows))
