import numpy as np
import pytest

import refractory as r
from refractory.cluster import _derived_seed
from refractory.errors import ConnectivityError, ConvergenceError
from refractory.reduce import LINEAR, RBF


def test_default_gamma_formula():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6)) * 3.0
    expected = 1.0 / (6 * X.var(axis=0).mean())
    assert abs(r.default_gamma(X) - expected) < 1e-12


def test_center_kernel_row_col_sums():
    rng = np.random.default_rng(1)
    K = rng.normal(size=(4, 4))
    K = K + K.T
    C = r.center_kernel(K)
    np.testing.assert_allclose(C.sum(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(C.sum(axis=1), 0.0, atol=1e-10)


def test_center_kernel_idempotent():
    rng = np.random.default_rng(2)
    K = rng.normal(size=(5, 5))
    K = K + K.T
    C = r.center_kernel(K)
    np.testing.assert_allclose(r.center_kernel(C), C, atol=1e-12)


def test_center_kernel_ones_is_zero():
    np.testing.assert_allclose(r.center_kernel(np.ones((6, 6))), 0.0, atol=1e-14)


def test_center_kernel_rejects_non_square():
    with pytest.raises(ValueError):
        r.center_kernel(np.ones((3, 4)))


def test_pca_reconstruction_full_rank():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 5))
    model = r.fit_reducer("PCA", X, 5)
    scores = r.transform(model, X).values
    np.testing.assert_allclose(model.mean + scores @ model.axes.T, X, atol=1e-8)


def test_pca_scores_orthogonal_and_centered():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 6))
    scores = r.transform(r.fit_reducer("PCA", X, 4), X).values
    G = scores.T @ scores
    np.testing.assert_allclose(G - np.diag(np.diag(G)), 0.0, atol=1e-8)
    np.testing.assert_allclose(scores.mean(axis=0), 0.0, atol=1e-10)


def test_pca_transform_of_mean_is_zero():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 4))
    model = r.fit_reducer("PCA", X, 3)
    row = r.transform(model, X.mean(axis=0, keepdims=True)).values
    np.testing.assert_allclose(row, 0.0, atol=1e-10)


def _align_signs(A, B):
    """Flip columns of B to match A's column signs."""
    signs = np.sign(np.sum(A * B, axis=0))
    signs[signs == 0] = 1.0
    return B * signs


def test_linear_kpca_matches_pca():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n, d = rng.integers(8, 30), rng.integers(3, 15)
        X = rng.normal(size=(n, d))
        k = int(min(3, n - 1, d))
        pca = r.transform(r.fit_reducer("PCA", X, k), X).values
        kpca = r.transform(r.fit_reducer("KPCA", X, k, kernel=r.KernelSpec(LINEAR)), X).values
        np.testing.assert_allclose(_align_signs(pca, kpca), pca, atol=1e-8)


def test_kpca_transform_consistent_with_fit():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 5))
    model = r.fit_reducer("KPCA", X, 4, kernel=r.KernelSpec(RBF, 0.3))
    full = r.transform(model, X).values
    one = r.transform(model, X[3:4]).values
    np.testing.assert_allclose(one[0], full[3], atol=1e-8)


def test_kpca_gram_psd_and_eigenvalues_sorted():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(15, 4))
    model = r.fit_reducer("KPCA", X, 10, kernel=r.KernelSpec(RBF))
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert model.eigenvalues.min() >= -1e-8 * np.trace(
        r.kernel_gram(X, None, r.KernelSpec(RBF), model.gamma)
    )


def test_kpca_shrinks_degenerate_components():
    # Two distinct rows give a rank-1 centered kernel: k collapses to 1.
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    model = r.fit_reducer("KPCA", X, 3, kernel=r.KernelSpec(RBF, 1.0))
    assert model.n_components == 1


def test_ica_components_unit_variance_uncorrelated():
    rng = np.random.default_rng(9)
    S = np.column_stack([np.sign(rng.normal(size=400)), rng.uniform(-1, 1, size=400)])
    A = np.array([[1.0, 0.4], [0.3, 1.0]])
    X = S @ A.T + rng.normal(scale=0.01, size=(400, 2))
    sources = r.transform(r.fit_reducer("ICA", X, 2, seed=0), X).values
    np.testing.assert_allclose(sources.var(axis=0), 1.0, atol=1e-6)
    corr = np.corrcoef(sources.T)
    assert abs(corr[0, 1]) < 1e-6


def test_ica_deterministic():
    rng = np.random.default_rng(10)
    X = rng.uniform(-1, 1, size=(200, 4))
    a = r.transform(r.fit_reducer("ICA", X, 3, seed=5), X).values
    b = r.transform(r.fit_reducer("ICA", X, 3, seed=5), X).values
    np.testing.assert_array_equal(a, b)


_COUNTS = np.random.default_rng(15).poisson(1.0, size=(40, 12)).astype(float)
# Three distinct rows, each four times: a rank-2 centred kernel, so k = 5 drops components.
_REPEATED = np.repeat(np.random.default_rng(16).poisson(2.0, size=(3, 6)).astype(float), 4, axis=0)


@pytest.mark.parametrize(
    "method, X, k",
    [("PCA", _COUNTS, 4), ("ICA", _COUNTS, 4), ("KPCA", _COUNTS, 4), ("ISOMAP", _COUNTS, 4), ("KPCA", _REPEATED, 5)],
    ids=["PCA", "ICA", "KPCA", "ISOMAP", "KPCA-drops-components"],
)
def test_train_embedding_is_the_fitted_rows_transform(method, X, k):
    model = r.fit_reducer(method, X, k, seed=0)
    assert model.train_embedding.shape == (X.shape[0], model.n_components)
    mapped = r.transform(model, X).values
    if method == "KPCA":
        # sqrt(eigenvalue) * eigenvector, where transform goes through a new Gram.
        atol = 1e-12 * np.abs(mapped).max()
        np.testing.assert_allclose(model.train_embedding, mapped, rtol=0, atol=atol)
    else:
        assert model.train_embedding.tobytes() == mapped.tobytes()
    if X is _REPEATED:
        assert model.n_components < k


def test_isomap_collinear_points_preserve_distances():
    t = np.linspace(0.0, 9.0, 10)
    X = np.column_stack([t, 2.0 * t, -t])
    model = r.fit_reducer("ISOMAP", X, 1, n_neighbors=9)
    emb = model.train_embedding[:, 0]
    direct = np.abs(emb[:, None] - emb[None, :])
    expected = np.sqrt(6.0) * np.abs(t[:, None] - t[None, :])
    np.testing.assert_allclose(direct, expected, atol=1e-6)


def test_isomap_disconnected_graph():
    X = np.vstack([np.zeros((3, 2)), np.full((3, 2), 100.0)])
    X = X + np.arange(6)[:, None] * 0.01
    with pytest.raises(ConnectivityError) as err:
        r.fit_reducer("ISOMAP", X, 2, n_neighbors=1)
    assert err.value.n_components >= 2
    assert "n_neighbors" in str(err.value)


def test_isomap_transform_requires_training_rows():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 3))
    model = r.fit_reducer("ISOMAP", X, 2, n_neighbors=5)
    np.testing.assert_allclose(r.transform(model, X).values, model.train_embedding)
    with pytest.raises(ValueError):
        r.transform(model, X + 0.1)


def test_transform_dimension_mismatch():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(10, 4))
    model = r.fit_reducer("PCA", X, 2)
    with pytest.raises(ValueError):
        r.transform(model, rng.normal(size=(3, 5)))


def test_fit_k_bounds():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(6, 3))
    with pytest.raises(ValueError):
        r.fit_reducer("PCA", X, 4)
    with pytest.raises(ValueError):
        r.fit_reducer("KPCA", X, 6)
    with pytest.raises(ValueError):
        r.fit_reducer("PCA", X, 0)
    with pytest.raises(ValueError):
        r.fit_reducer("SVD", X, 2)


def test_max_components_per_method():
    assert r.max_components("KPCA", 6, 3) == 5
    assert r.max_components("ISOMAP", 6, 30) == 5
    assert r.max_components("PCA", 6, 3) == 3
    assert r.max_components("PCA", 6, 30) == 5
    assert r.max_components("ICA", 6, 3) == 3
    assert r.max_components("ICA", 6, 30) == 5
    with pytest.raises(ValueError, match="unknown reducer"):
        r.max_components("SVD", 6, 3)


def test_embedding_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(9, 4))
    model = r.fit_reducer("PCA", X, 2)
    emb = r.transform(model, X)
    emb.row_ids = [f"p{i}" for i in range(9)]
    path = tmp_path / "emb.csv"
    r.write_embedding(emb, path)
    again = r.read_embedding(path, "PCA")
    assert again.row_ids == emb.row_ids
    np.testing.assert_array_equal(again.values, emb.values)
    assert path.read_text().splitlines()[0] == "patient_id,c0,c1"


def test_ica_convergence_error_carries_iterations():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(50, 3))
    from refractory import reduce as reduce_mod

    old = reduce_mod._ICA_MAX_ITER
    reduce_mod._ICA_MAX_ITER = 1
    try:
        with pytest.raises(ConvergenceError) as err:
            r.fit_reducer("ICA", X, 3, seed=0)
        assert err.value.iterations == 1
    finally:
        reduce_mod._ICA_MAX_ITER = old


@pytest.mark.parametrize(
    "n_per_class, seed",
    # Warm-up seeds 0-3 (a fixed range) and seed 59 at the default 200 + 200,
    # all of which deflation FastICA failed within _ICA_MAX_ITER.
    [(40, 0), (40, 1), (40, 2), (40, 3), (200, 59)],
)
def test_ica_sweep_fit_converges_on_generated_cohorts(generated_counts, n_per_class, seed):
    X, _ = generated_counts(n_per_class, seed)
    model = r.fit_reducer("ICA", X, 20, seed=_derived_seed(seed, 2, 0))
    sources = r.transform(model, X).values
    np.testing.assert_allclose(sources.T @ sources / len(X), np.eye(20), atol=1e-8)


@pytest.mark.parametrize(
    "X",
    [np.ones((30, 4)), np.tile([1.0, 0.0, 3.0, 2.0], (30, 1))],
    ids=["constant", "one-row-repeated"],
)
@pytest.mark.parametrize("k", [2, 20])
def test_degenerate_rows_have_nothing_to_embed(X, k):
    with pytest.raises(ValueError, match="no positive eigenvalues"):
        r.fit_reducer("KPCA", X, k)
    with pytest.raises(ValueError, match="no positive eigenvalues"):
        r.fit_reducer("ISOMAP", X, k)
    model = r.fit_reducer("PCA", X, 2)
    np.testing.assert_array_equal(model.eigenvalues, 0.0)



@pytest.mark.parametrize(
    "rows, counts",
    [
        ([[1.0, 0.0, 3.0, 2.0], [0.0, 2.0, 1.0, 1.0]], [60, 40]),
        ([[1.0, 0.0, 3.0, 2.0], [0.0, 2.0, 1.0, 1.0], [2.0, 1.0, 0.0, 0.0]], [50, 30, 20]),
    ],
    ids=["two-rows", "three-rows"],
)
@pytest.mark.parametrize("k", [2, 20])
def test_low_rank_rows_keep_positive_components_as_the_full_solve(monkeypatch, rows, counts, k):
    # 100 copies of two or three rows, so the centered matrices have rank 1 or
    # 2: Lanczos asked for k pairs meets an invariant subspace and must still
    # return the positive pairs. Unequal counts keep the sign rule's
    # largest-magnitude entry unique.
    import refractory.reduce as reduce_mod
    from refractory.linalg import symmetric_eig

    X = np.repeat(rows, counts, axis=0)
    n_neighbors = max(counts) + 5

    def fit_both():
        return r.fit_reducer("KPCA", X, k), r.fit_reducer("ISOMAP", X, k, n_neighbors=n_neighbors)

    top_k = fit_both()
    monkeypatch.setattr(reduce_mod, "symmetric_eig", lambda A, k=None: symmetric_eig(A))
    full = fit_both()
    assert top_k[0].n_components == full[0].n_components == len(rows) - 1
    assert 1 <= top_k[1].n_components == full[1].n_components <= len(rows) - 1
    for model, reference in zip(top_k, full):
        np.testing.assert_allclose(model.eigenvalues, reference.eigenvalues, rtol=1e-12)
    np.testing.assert_allclose(top_k[0].dual_axes, full[0].dual_axes, atol=1e-10)
    np.testing.assert_allclose(top_k[1].train_embedding, full[1].train_embedding, atol=1e-10)


def _counts(n, d, seed):
    return np.random.default_rng(seed).poisson(0.3, size=(n, d)).astype(float)


def _capture_eig_input(monkeypatch):
    import refractory.reduce as reduce_mod
    from refractory.linalg import symmetric_eig

    seen = []

    def capture(A, k=None):
        seen.append(A.copy())
        return symmetric_eig(A, k)

    monkeypatch.setattr(reduce_mod, "symmetric_eig", capture)
    return seen


def test_kpca_fit_and_transform_bytes_equal_the_out_of_place_form(monkeypatch):
    X = _counts(300, 40, 21)
    Z = _counts(70, 40, 22)
    seen = _capture_eig_input(monkeypatch)
    model = r.fit_reducer("KPCA", X, 5)
    # The whole-matrix expressions the in-place centering replaced.
    K = r.rbf_gram(X, None, model.gamma)
    assert model.kernel_col_means.tobytes() == K.mean(axis=0).tobytes()
    assert model.kernel_grand_mean == float(K.mean())
    centered = K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()
    assert len(seen) == 1 and seen[0].tobytes() == centered.tobytes()
    for rows in (X, Z):
        G = r.rbf_gram(rows, X, model.gamma)
        expected = (
            G - G.mean(axis=1, keepdims=True) - model.kernel_col_means[None, :] + model.kernel_grand_mean
        ) @ model.dual_axes
        assert r.transform(model, rows).values.tobytes() == expected.tobytes()


def test_center_kernel_leaves_its_input_unchanged():
    K = np.random.default_rng(23).normal(size=(9, 9))
    K = K + K.T
    before = K.copy()
    C = r.center_kernel(K)
    assert K.tobytes() == before.tobytes()
    expected = K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()
    assert C.tobytes() == expected.tobytes()


def test_isomap_neighbours_and_gram_bytes_equal_the_out_of_place_form(monkeypatch):
    import scipy.sparse
    import scipy.sparse.csgraph

    from refractory.linalg import pairwise_sq_dists

    # Integer counts: many tied distances, so the stable order matters, and
    # 600 rows span three of the ranking's row blocks.
    X = _counts(600, 30, 24)
    n_neighbors = 10
    graphs, geodesics = [], []
    csr_matrix, shortest_path = scipy.sparse.csr_matrix, scipy.sparse.csgraph.shortest_path

    def capture_graph(arg, **kwargs):
        graphs.append(arg)
        return csr_matrix(arg, **kwargs)

    def capture_geodesics(*args, **kwargs):
        geodesics.append(shortest_path(*args, **kwargs).copy())
        return shortest_path(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse, "csr_matrix", capture_graph)
    monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path", capture_geodesics)
    seen = _capture_eig_input(monkeypatch)
    r.fit_reducer("ISOMAP", X, 5, n_neighbors=n_neighbors)

    ranked = pairwise_sq_dists(X)
    np.fill_diagonal(ranked, np.inf)
    order = np.argsort(ranked, axis=1, kind="stable")[:, :n_neighbors]
    weights, (rows, cols) = graphs[0]
    assert np.array_equal(rows, np.repeat(np.arange(600), n_neighbors))
    assert np.array_equal(cols, order.ravel())
    direct = np.sqrt(((X[rows] - X[cols]) ** 2).sum(axis=1))
    assert np.array_equal(weights, np.maximum(direct, 1e-300))

    G2 = geodesics[0] ** 2
    B = -0.5 * (G2 - G2.mean(axis=0, keepdims=True) - G2.mean(axis=1, keepdims=True) + G2.mean())
    assert len(seen) == 1 and seen[0].tobytes() == B.tobytes()


def test_isomap_repeated_non_integer_row_has_nothing_to_embed():
    # The Gram form of the squared distance leaves about 4e-15 between these
    # identical rows; edge lengths from the rows' difference are exactly 0.
    X = np.tile([0.3, -1.7, 2.9, 0.1], (30, 1))
    for k in (2, 20):
        with pytest.raises(ValueError, match="no positive eigenvalues"):
            r.fit_reducer("ISOMAP", X, k)


def _stable_nearest(d2, k):
    """The ranking before partitioning: a full stable argsort of every row."""
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def _ranked(X):
    from refractory.linalg import pairwise_sq_dists

    d2 = pairwise_sq_dists(X)
    np.fill_diagonal(d2, np.inf)
    return d2


def _neighbour_cases():
    counts = _counts(600, 30, 5)  # 600 rows: the last row block is partial
    duplicated = _counts(300, 12, 6)
    duplicated[1::3] = duplicated[::3][: len(duplicated[1::3])]  # zero distances
    with_inf = _ranked(_counts(300, 12, 7))
    with_inf[np.random.default_rng(7).random(with_inf.shape) < 0.2] = np.inf
    return {"counts": _ranked(counts), "duplicated": _ranked(duplicated), "inf": with_inf}


@pytest.mark.parametrize("case", ["counts", "duplicated", "inf"])
@pytest.mark.parametrize("k", [1, 10, "n - 1"])
def test_partition_ranked_neighbours_equal_the_stable_argsort(case, k):
    from refractory.reduce import _nearest_columns

    d2 = _neighbour_cases()[case]
    k = d2.shape[0] - 1 if k == "n - 1" else k
    expected = _stable_nearest(d2, k)
    if case == "counts" and k == 10:
        ordered = np.sort(d2, axis=1)
        assert (ordered[:, k - 1] == ordered[:, k]).any()  # a tie at the k-th distance
    if case == "duplicated":
        assert (np.take_along_axis(d2, expected, axis=1)[:, 0] == 0.0).any()
    got = _nearest_columns(d2, k)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_partition_ranked_neighbours_on_random_ties():
    from refractory.reduce import _nearest_columns

    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 700))
        d2 = rng.integers(0, 4, size=(n, n)).astype(float)
        np.fill_diagonal(d2, np.inf)
        k = int(rng.integers(1, n))
        assert np.array_equal(_nearest_columns(d2, k), _stable_nearest(d2, k))


@pytest.mark.parametrize("seed", range(10))
def test_isomap_directed_geodesics_equal_the_undirected_ones(seed):
    from scipy.sparse.csgraph import shortest_path

    from refractory.reduce import _knn_graph

    # Count rows, a fifth of them repeated, so some edges have the 1e-300
    # floor's length and many lengths tie.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 601))
    X = rng.poisson(0.5, size=(n, int(rng.integers(3, 40)))).astype(float)
    X[rng.choice(n, n // 5, replace=False)] = X[rng.choice(n, n // 5)]
    graph = _knn_graph(X, int(rng.integers(1, 16)))
    directed = shortest_path(graph, method="D", directed=True)
    assert directed.tobytes() == shortest_path(graph, method="D", directed=False).tobytes()
