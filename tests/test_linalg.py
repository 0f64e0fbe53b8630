import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from refractory import linalg
from refractory.classify import SVM_RBF, ClassifierSpec, fit_classifier
from refractory.cluster import SPECTRAL, ClusterConfig, clustering_sweep, fit_clusters
from refractory.errors import ConvergenceError
from refractory.linalg import pairwise_sq_dists, rbf_gram, symmetric_eig
from refractory.reduce import fit_reducer

SRC = Path(__file__).resolve().parents[1] / "src" / "refractory"


def test_eig_residual_bound():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = rng.integers(2, 30)
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2.0
        values, vectors = symmetric_eig(A)
        norm = np.linalg.norm(A)
        for j in range(n):
            residual = np.linalg.norm(A @ vectors[:, j] - values[j] * vectors[:, j])
            assert residual <= 1e-8 * max(norm, 1e-30)


def test_eig_descending_order():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(12, 12))
    A = A + A.T
    values, _ = symmetric_eig(A)
    assert np.all(np.diff(values) <= 1e-12)


def test_eig_known_matrix():
    A = np.array([[2.0, 0.0], [0.0, -1.0]])
    values, vectors = symmetric_eig(A)
    np.testing.assert_allclose(values, [2.0, -1.0])
    np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-12)


def test_eig_sign_convention():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(9, 9))
    A = A + A.T
    _, vectors = symmetric_eig(A)
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_eig_orthonormal_vectors():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(15, 15))
    A = A + A.T
    _, V = symmetric_eig(A)
    np.testing.assert_allclose(V.T @ V, np.eye(15), atol=1e-10)


def test_eig_rejects_non_symmetric():
    with pytest.raises(ValueError):
        symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        symmetric_eig(np.ones((2, 3)))


def test_pairwise_sq_dists_matches_direct():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(8, 3))
    Y = rng.normal(size=(5, 3))
    D = pairwise_sq_dists(X, Y)
    for i in range(8):
        for j in range(5):
            expected = np.sum((X[i] - Y[j]) ** 2)
            assert abs(D[i, j] - expected) < 1e-10


def test_pairwise_sq_dists_self_nonnegative_zero_diag():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 4))
    D = pairwise_sq_dists(X)
    assert D.min() >= 0.0
    np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-12)


def _random_symmetric(rng, n):
    A = rng.normal(size=(n, n))
    return (A + A.T) / 2.0


def _centered_rbf_gram(rng, n):
    X = rng.normal(size=(n, 6))
    K = np.exp(-pairwise_sq_dists(X) / 6.0)
    return K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()


def _normalized_affinity(rng, n):
    X = np.vstack([rng.normal(size=(n // 2, 3)), rng.normal(size=(n - n // 2, 3)) + 3.0])
    W = np.exp(-pairwise_sq_dists(X) / 3.0)
    np.fill_diagonal(W, 0.0)
    inv_sqrt = 1.0 / np.sqrt(W.sum(axis=1))
    return W * inv_sqrt[:, None] * inv_sqrt[None, :]


def _graph_laplacian(rng, n):
    # Integer weights: every row sum is exactly zero, so the ones vector
    # lies exactly in the null space.
    W = np.triu(rng.integers(0, 3, size=(n, n)), 1).astype(float)
    W = W + W.T
    return np.diag(W.sum(axis=1)) - W


TOP_K_CASES = [
    (_random_symmetric, 150),
    (_random_symmetric, 300),
    (_centered_rbf_gram, 200),
    (_normalized_affinity, 120),
    (_graph_laplacian, 100),
]


@pytest.mark.parametrize("make, n", TOP_K_CASES)
@pytest.mark.parametrize("k", [1, 2, 20])
def test_top_k_matches_leading_pairs_of_full_solve(make, n, k):
    A = make(np.random.default_rng(n + k), n)
    full_values, full_vectors = symmetric_eig(A)
    values, vectors = symmetric_eig(A, k)
    assert values.shape == (k,) and vectors.shape == (n, k)
    np.testing.assert_allclose(values, full_values[:k], rtol=1e-12, atol=1e-12 * np.abs(full_values).max())
    np.testing.assert_allclose(vectors, full_vectors[:, :k], rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("make, n", TOP_K_CASES)
def test_top_k_residual_order_and_sign(make, n):
    A = make(np.random.default_rng(n), n)
    values, vectors = symmetric_eig(A, 20)
    residual = np.linalg.norm(A @ vectors - vectors * values[None, :], axis=0)
    assert residual.max() <= 1e-8 * np.linalg.norm(A)
    assert np.all(np.diff(values) <= 0.0)
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_top_k_repeats_exactly():
    A = _centered_rbf_gram(np.random.default_rng(9), 200)
    first, second = symmetric_eig(A, 20), symmetric_eig(A, 20)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


@pytest.mark.parametrize("n, k", [(10, 10), (10, 5), (41, 21), (2, 1)])
def test_top_k_large_against_n_is_the_dense_solve(n, k):
    A = _random_symmetric(np.random.default_rng(n), n)
    full_values, full_vectors = symmetric_eig(A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, vectors = symmetric_eig(A, k)
    assert np.array_equal(values, full_values[:k])
    assert np.array_equal(vectors, full_vectors[:, :k])


@pytest.mark.parametrize("k", [0, -1, 7])
def test_top_k_out_of_range_rejected(k):
    with pytest.raises(ValueError):
        symmetric_eig(np.eye(6), k)


@pytest.mark.parametrize("n, k", [(30, 2), (30, 15), (100, 20)])
def test_top_k_of_zero_matrix_is_zero(n, k):
    values, vectors = symmetric_eig(np.zeros((n, n)), k)
    np.testing.assert_array_equal(values, np.zeros(k))
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(k), atol=1e-12)


def _stalled_eigsh(A, k, **kwargs):
    raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((A.shape[0], 0)))


def test_top_k_non_convergence_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(linalg, "eigsh", _stalled_eigsh)
    A = _random_symmetric(np.random.default_rng(0), 50)
    with pytest.raises(ConvergenceError) as info:
        symmetric_eig(A, 3)
    assert info.value.iterations > 0
    symmetric_eig(A)  # the full solve does not use Lanczos


def test_sweep_records_lanczos_failure(monkeypatch):
    monkeypatch.setattr(linalg, "eigsh", _stalled_eigsh)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 6))
    y = np.repeat([0, 1], 20)
    cells = clustering_sweep(X, y, reductions=("none", "KPCA"), methods=("KMEANS", "SPECTRAL"), k=3, restarts=2)
    status = {(c.reduction, c.method): c.status for c in cells}
    assert status[("none", "KMEANS")] == "ok"
    for cell in [("none", "SPECTRAL"), ("KPCA", "KMEANS"), ("KPCA", "SPECTRAL")]:
        assert status[cell].startswith("failed: Lanczos did not find")


def test_rbf_gram_values():
    assert rbf_gram(np.array([[1, 2]]), np.array([[1, 2]]), 3.0)[0, 0] == 1.0
    assert abs(rbf_gram(np.array([[0]]), np.array([[1]]), 1.0)[0, 0] - np.exp(-1.0)) < 1e-15
    assert abs(rbf_gram(np.array([[1, 2]]), np.array([[3, 4]]), 0.5)[0, 0] - np.exp(-4.0)) < 1e-15


@pytest.mark.parametrize("n, m, d", [(343, None, 20), (60, 25, 20), (40, 30, 500)])
def test_rbf_gram_matches_the_out_of_place_formula(n, m, d):
    rng = np.random.default_rng(n)
    X = rng.poisson(0.5, size=(n, d)).astype(float)
    Y = None if m is None else rng.normal(size=(m, d))
    X0 = X.copy()
    Y0 = None if Y is None else Y.copy()
    gamma = 1.0 / (d * 0.7)
    K = rbf_gram(X, Y, gamma)
    expected = np.exp(-gamma * pairwise_sq_dists(X, Y))
    assert K.shape == expected.shape
    assert K.tobytes() == expected.tobytes()
    assert X.tobytes() == X0.tobytes()
    if Y is not None:
        assert Y.tobytes() == Y0.tobytes()


@pytest.mark.parametrize(
    "fit",
    [
        lambda X, y: fit_classifier(ClassifierSpec(method=SVM_RBF), X, y),
        lambda X, y: fit_clusters(ClusterConfig(method=SPECTRAL, n_clusters=2), X),
        lambda X, y: fit_reducer("KPCA", X, 2),
    ],
    ids=["SVM_RBF", "SPECTRAL", "KPCA"],
)
def test_kernel_width_needs_a_feature_column(fit):
    X = np.zeros((10, 0))
    y = np.repeat([0, 1], 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need at least one feature column"):
            fit(X, y)


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def test_rbf_kernel_is_formed_only_in_linalg():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if _called_name(node) == "exp":
                inner = [_called_name(sub) for arg in node.args for sub in ast.walk(arg)]
                assert "pairwise_sq_dists" not in inner, f"{path.name}:{node.lineno} forms an RBF Gram"
    classify = ast.parse((SRC / "classify.py").read_text())
    for node in ast.walk(classify):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "reduce" and "reduce" not in [a.name for a in node.names]
        if isinstance(node, ast.Import):
            assert not any(a.name.endswith(".reduce") for a in node.names)


def _out_of_place_sq_dists(X, Y):
    # The whole-matrix expression the blocked pairwise_sq_dists replaced.
    x2 = np.sum(X * X, axis=1)[:, None]
    y2 = np.sum(Y * Y, axis=1)[None, :]
    return np.maximum(x2 + y2 - 2.0 * (X @ Y.T), 0.0)


@pytest.mark.parametrize("n", [1, 255, 257, 600])
@pytest.mark.parametrize("other", [False, True], ids=["self", "other"])
def test_pairwise_sq_dists_bytes_equal_the_out_of_place_form(n, other):
    rng = np.random.default_rng(n)
    X = rng.poisson(0.3, size=(n, 40)).astype(float) + rng.normal(scale=1e-3, size=(n, 40))
    Y = rng.normal(size=(n + 37, 40)) if other else None
    D = pairwise_sq_dists(X, Y)
    expected = _out_of_place_sq_dists(X, X if Y is None else Y)
    assert D.shape == expected.shape
    assert np.array_equal(D, expected) and D.tobytes() == expected.tobytes()


def _symmetric_600(seed=0):
    # 600 rows: two full row blocks and a partial third one.
    A = _random_symmetric(np.random.default_rng(seed), 600)
    assert A.shape[0] > 2 * linalg._ROW_BLOCK
    return A


def test_eig_rejects_asymmetry_in_the_last_row_block():
    A = _symmetric_600()
    A[599, 3] += 1e-3
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        symmetric_eig(A, 2)
    A[3, 599] += 1e-3
    symmetric_eig(A, 2)


def test_eig_rejects_nan():
    A = _symmetric_600()
    A[300, 300] = np.nan
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        symmetric_eig(A, 2)
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        symmetric_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))


@pytest.mark.parametrize("seed", range(6))
def test_blocked_symmetry_check_agrees_with_the_whole_matrix_check(seed):
    rng = np.random.default_rng(seed)
    A = _symmetric_600(seed) * 10.0 ** rng.integers(-3, 4)
    tol = 1e-8 * max(1.0, float(np.abs(A).max()))
    i, j = rng.integers(0, 600, size=2)
    A[i, j] += tol * rng.choice([0.5, 0.999, 1.001, 2.0])
    if seed == 5:
        A[i, j] = np.inf
        A[j, i] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy warns on atol = inf
        expected = np.allclose(A, A.T, rtol=0.0, atol=1e-8 * max(1.0, float(np.abs(A).max(initial=0.0))))
        assert linalg._is_symmetric(A) == expected


def test_spectral_affinity_bytes_equal_the_out_of_place_form(monkeypatch):
    from refractory import cluster

    rng = np.random.default_rng(7)
    X = rng.poisson(0.3, size=(300, 30)).astype(float)
    seen = []

    def capture(A, k=None):
        seen.append(A.copy())
        return symmetric_eig(A, k)

    monkeypatch.setattr(cluster, "symmetric_eig", capture)
    fit_clusters(ClusterConfig(method=SPECTRAL, n_clusters=2, restarts=1), X)
    W = np.exp(-linalg.default_gamma(X) * pairwise_sq_dists(X))
    np.fill_diagonal(W, 0.0)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(W.sum(axis=1), 1e-300))
    expected = W * inv_sqrt[:, None] * inv_sqrt[None, :]
    assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()


def _whole_matrix_check(A):
    """The symmetry check before block pairs: np.allclose over the whole matrix."""
    return np.allclose(A, A.T, rtol=0.0, atol=1e-8 * max(1.0, float(np.abs(A).max(initial=0.0))))


def _block_check(A):
    """linalg._is_symmetric, checked against the whole-matrix form."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy warns on atol = inf
        got, expected = linalg._is_symmetric(A), _whole_matrix_check(A)
    assert got == expected
    return got


@pytest.mark.parametrize("step", [0.5, 0.999, 1.001, 2.0])
def test_symmetry_check_reads_an_asymmetry_only_in_a_lower_block(step):
    A = _symmetric_600(1)
    tol = 1e-8 * max(1.0, float(np.abs(A).max()))
    # Row block 2, column block 0: strictly below the diagonal blocks.
    A[550, 40] += tol * step
    assert _block_check(A) == (step < 1.0)


@pytest.mark.parametrize(
    "upper, lower",
    [(np.inf, np.inf), (-np.inf, -np.inf), (np.inf, -np.inf), (np.inf, 1.0), (1.0, -np.inf), (np.nan, np.nan)],
)
@pytest.mark.parametrize("where", [(3, 590), (590, 3), (300, 300)])
def test_symmetry_check_on_infinities_agrees_with_the_whole_matrix(upper, lower, where):
    A = _symmetric_600(2)
    i, j = where
    A[i, j], A[j, i] = upper, lower
    symmetric = _block_check(A)
    if i != j:
        assert symmetric == (upper == lower)


@pytest.mark.parametrize("n", [0, 1, 2, 7, linalg._ROW_BLOCK - 1])
def test_symmetry_check_below_one_block_agrees_with_the_whole_matrix(n):
    A = _random_symmetric(np.random.default_rng(n), n)
    assert _block_check(A)
    if n > 1:
        tol = 1e-8 * max(1.0, float(np.abs(A).max()))
        for step in (0.5, 2.0):
            B = A.copy()
            B[n - 1, 0] += tol * step
            assert _block_check(B) == (step < 1.0)
        B = A.copy()
        B[0, n - 1] = np.inf
        assert not _block_check(B)
