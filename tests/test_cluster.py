import cProfile
import sys

import numpy as np
import pytest

from refractory import cluster as cluster_mod
from refractory.cluster import (
    AGGLOMERATIVE,
    CLUSTER_METHODS,
    GMM,
    KMEANS,
    SPECTRAL,
    SWEEP_REDUCTIONS,
    ClusterConfig,
    SweepCell,
    clustering_sweep,
    fit_clusters,
    write_sweep,
)
from refractory.linalg import pairwise_sq_dists
from refractory.metrics import adjusted_rand


def _three_blobs(n_per=20, gap=12.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [gap, 0.0], [0.0, gap]])
    X = np.vstack([rng.normal(scale=0.4, size=(n_per, 2)) + c for c in centers])
    y = np.repeat(np.arange(3), n_per)
    return X, y


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_separated_blobs_recovered_exactly(method):
    X, y = _three_blobs()
    out = fit_clusters(ClusterConfig(method=method, n_clusters=3, seed=1), X)
    assert adjusted_rand(y, out.labels) == 1.0


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_single_cluster_is_all_zeros(method):
    X, _ = _three_blobs(n_per=5)
    out = fit_clusters(ClusterConfig(method=method, n_clusters=1, seed=0), X)
    np.testing.assert_array_equal(out.labels, 0)


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_duplicate_rows_share_labels(method):
    X, _ = _three_blobs(n_per=8, seed=2)
    X = np.vstack([X, X[:4]])  # exact duplicates of the first four rows
    out = fit_clusters(ClusterConfig(method=method, n_clusters=3, seed=0), X)
    np.testing.assert_array_equal(out.labels[-4:], out.labels[:4])


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_labels_are_contiguous_ints(method):
    X, _ = _three_blobs(n_per=10, seed=3)
    out = fit_clusters(ClusterConfig(method=method, n_clusters=3, seed=0), X)
    assert out.labels.shape == (30,)
    assert set(np.unique(out.labels)) <= set(range(3))


def test_kmeans_inertia_trace_non_increasing():
    X, _ = _three_blobs(gap=3.0, seed=4)
    out = fit_clusters(ClusterConfig(method=KMEANS, n_clusters=3, seed=5), X)
    trace = np.asarray(out.trace)
    assert len(trace) >= 1
    assert np.all(np.diff(trace) <= 1e-9)
    assert abs(out.objective - trace[-1]) < 1e-9


def test_kmeans_inertia_matches_direct_computation():
    X, _ = _three_blobs(seed=5)
    out = fit_clusters(ClusterConfig(method=KMEANS, n_clusters=3, seed=0), X)
    inertia = 0.0
    for c in range(3):
        pts = X[out.labels == c]
        inertia += ((pts - pts.mean(axis=0)) ** 2).sum()
    assert abs(out.objective - inertia) < 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_lloyd_stops_at_the_first_repeated_assignment(monkeypatch, seed):
    passes = []

    def recorded(X, Y=None):
        d2 = pairwise_sq_dists(X, Y)
        passes.append(d2.argmin(axis=1))
        return d2

    monkeypatch.setattr(cluster_mod, "pairwise_sq_dists", recorded)
    X, _ = _three_blobs(gap=3.0, seed=4)
    out = fit_clusters(ClusterConfig(method=KMEANS, n_clusters=3, seed=seed, restarts=1), X)
    assert len(passes) == len(out.trace) >= 2
    # Only the last two passes agree: no pass follows the first repeat.
    for before, after in zip(passes[:-2], passes[1:-1]):
        assert not np.array_equal(before, after)
    np.testing.assert_array_equal(passes[-1], passes[-2])
    np.testing.assert_array_equal(out.labels, passes[-1])


def test_lloyd_stops_at_its_cap_when_a_reseed_flips_back_and_forth():
    # Three clusters over two distinct rows: one cluster always empties,
    # and its re-seed flips between the pairs, so no assignment repeats.
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    out = fit_clusters(ClusterConfig(method=KMEANS, n_clusters=3, seed=0, restarts=1), X)
    assert len(out.trace) == cluster_mod._LLOYD_MAX_ITER + 1
    np.testing.assert_array_equal(out.labels, [1, 1, 0, 0])
    assert out.objective == out.trace[-1]


def test_gmm_log_likelihood_trace_non_decreasing():
    X, _ = _three_blobs(gap=4.0, seed=6)
    out = fit_clusters(ClusterConfig(method=GMM, n_clusters=3, seed=7), X)
    trace = np.asarray(out.trace)
    assert len(trace) >= 2
    assert np.all(np.diff(trace) >= -1e-8)


def test_agglomerative_merge_costs_non_decreasing():
    X, _ = _three_blobs(gap=2.0, seed=8)
    out = fit_clusters(ClusterConfig(method=AGGLOMERATIVE, n_clusters=2, seed=0), X)
    trace = np.asarray(out.trace)
    assert len(trace) == len(X) - 2  # merges until two groups remain
    assert np.all(np.diff(trace) >= -1e-9)


def test_agglomerative_deterministic_without_seed_dependence():
    X, _ = _three_blobs(n_per=10, seed=9)
    a = fit_clusters(ClusterConfig(method=AGGLOMERATIVE, n_clusters=3, seed=0), X)
    b = fit_clusters(ClusterConfig(method=AGGLOMERATIVE, n_clusters=3, seed=99), X)
    np.testing.assert_array_equal(a.labels, b.labels)


def _greedy_ward(X, k):
    """Reference Ward: each step merges the pair whose union raises the
    within-cluster sum of squares least, recomputed from the members."""
    def sse(members):
        return float(((X[members] - X[members].mean(axis=0)) ** 2).sum())

    clusters, trace = [[i] for i in range(len(X))], []
    while len(clusters) > k:
        rise, i, j = min((sse(a + b) - sse(a) - sse(b), i, j)
                         for i, a in enumerate(clusters) for j, b in enumerate(clusters) if i < j)
        trace.append(rise)
        clusters[i] += clusters.pop(j)
    labels = np.empty(len(X), dtype=int)
    for label, members in enumerate(sorted(clusters, key=min)):
        labels[members] = label
    return labels, trace


@pytest.mark.parametrize("k", [2, 3, 5])
def test_agglomerative_matches_brute_force_greedy_ward(k):
    X = np.random.default_rng(14).normal(size=(40, 3))
    labels, trace = _greedy_ward(X, k)
    out = fit_clusters(ClusterConfig(method=AGGLOMERATIVE, n_clusters=k), X)
    np.testing.assert_array_equal(out.labels, labels)
    np.testing.assert_allclose(out.trace, trace, rtol=1e-9)
    assert out.objective == pytest.approx(sum(trace), rel=1e-9)


@pytest.mark.parametrize("k", [2, 3])
def test_agglomerative_tied_heights_still_give_k_clusters(k):
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    out = fit_clusters(ClusterConfig(method=AGGLOMERATIVE, n_clusters=k), square)
    assert sorted(set(out.labels.tolist())) == list(range(k))
    assert out.labels[0] == 0


def test_agglomerative_without_merges():
    X = np.random.default_rng(15).normal(size=(5, 2))
    out = fit_clusters(ClusterConfig(method=AGGLOMERATIVE, n_clusters=5), X)
    np.testing.assert_array_equal(out.labels, np.arange(5))
    assert out.trace == []
    one = fit_clusters(ClusterConfig(method=AGGLOMERATIVE, n_clusters=1), np.ones((1, 3)))
    np.testing.assert_array_equal(one.labels, [0])


@pytest.mark.parametrize("n", [2, 3, 257, 600])
def test_condensed_distances_are_the_square_form_upper_triangle(n):
    from scipy.spatial.distance import squareform

    # Poisson counts repeat rows, so some distances are exactly 0.
    X = np.random.default_rng(n).poisson(0.3, size=(n, 40)).astype(float)
    condensed = cluster_mod._condensed_distances(X)
    expected = np.sqrt(squareform(pairwise_sq_dists(X), checks=False))
    assert condensed.shape == (n * (n - 1) // 2,)
    assert condensed.tobytes() == expected.tobytes()


def _settrace_run(fit):
    def tracer(frame, event, arg):
        return tracer

    sys.settrace(tracer)
    try:
        return fit()
    finally:
        sys.settrace(None)


def _cprofile_run(fit):
    profile = cProfile.Profile()
    profile.enable()
    try:
        return fit()
    finally:
        profile.disable()


@pytest.mark.parametrize("hook", [_settrace_run, _cprofile_run], ids=["settrace", "cprofile"])
def test_agglomerative_under_a_tracer_or_profiler_matches_untraced(hook):
    # A tracing or profiling hook holds a reference to each frame's locals,
    # which an in-place shrink of the distance buffer must not depend on.
    X = np.random.default_rng(0).standard_normal((50, 3))
    config = ClusterConfig(method=AGGLOMERATIVE, n_clusters=3)
    untraced = fit_clusters(config, X)
    traced = hook(lambda: fit_clusters(config, X))
    np.testing.assert_array_equal(traced.labels, untraced.labels)
    assert traced.trace == untraced.trace
    assert traced.objective == untraced.objective


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_row_permutation_equivalent_partition(method):
    X, _ = _three_blobs(n_per=10, seed=10)
    rng = np.random.default_rng(11)
    perm = rng.permutation(len(X))
    base = fit_clusters(ClusterConfig(method=method, n_clusters=3, seed=0), X)
    shuffled = fit_clusters(ClusterConfig(method=method, n_clusters=3, seed=0), X[perm])
    assert adjusted_rand(base.labels[perm], shuffled.labels) == 1.0


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_deterministic_given_seed(method):
    X, _ = _three_blobs(n_per=10, gap=1.0, seed=12)
    a = fit_clusters(ClusterConfig(method=method, n_clusters=3, seed=4), X)
    b = fit_clusters(ClusterConfig(method=method, n_clusters=3, seed=4), X)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_too_many_clusters_rejected():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        fit_clusters(ClusterConfig(method=KMEANS, n_clusters=4), X)


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(method="DBSCAN")
    with pytest.raises(ValueError):
        ClusterConfig(method=KMEANS, n_clusters=0)
    with pytest.raises(ValueError):
        ClusterConfig(method=KMEANS, restarts=0)


def test_non_finite_rows_rejected():
    X = np.array([[0.0, np.inf], [1.0, 2.0]])
    with pytest.raises(ValueError):
        fit_clusters(ClusterConfig(method=KMEANS, n_clusters=1), X)


def test_sweep_covers_full_grid():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(24, 6))
    y = rng.integers(0, 2, size=24)
    cells = clustering_sweep(X, y, k=3, n_neighbors=5, seed=0, restarts=2)
    assert len(cells) == len(SWEEP_REDUCTIONS) * len(CLUSTER_METHODS)
    seen = {(c.reduction, c.method) for c in cells}
    assert len(seen) == len(cells)
    for cell in cells:
        if cell.status == "ok":
            assert cell.adjusted_rand is not None
            assert -1.0 <= cell.adjusted_rand <= 1.0
        else:
            assert cell.adjusted_rand is None


def test_sweep_records_reducer_failure_instead_of_raising():
    # Two far-apart clumps with n_neighbors=1 disconnect the ISOMAP graph.
    X = np.vstack([np.zeros((6, 2)), np.full((6, 2), 50.0)])
    X = X + np.arange(12)[:, None] * 0.01
    y = np.repeat([0, 1], 6)
    cells = clustering_sweep(
        X, y, reductions=("ISOMAP",), k=2, n_neighbors=1, seed=0, restarts=2
    )
    assert len(cells) == len(CLUSTER_METHODS)
    for cell in cells:
        assert cell.status.startswith("failed:")
        assert cell.adjusted_rand is None and cell.adjusted_mutual_info is None


def test_sweep_perfect_structure_scores_one():
    X, y = _three_blobs(n_per=10)
    cells = clustering_sweep(
        X, y, reductions=("none", "PCA"), methods=(KMEANS,), k=2,
        n_clusters=3, seed=0, restarts=3,
    )
    for cell in cells:
        assert cell.status == "ok"
        assert cell.adjusted_rand == 1.0
        assert cell.adjusted_mutual_info == pytest.approx(1.0, abs=1e-12)


def test_sweep_on_warmup_cohort_has_every_cell_ok(generated_counts):
    # The benchmark's warm-up run-all (40 + 40 patients, restarts = 1) at seed 0,
    # where deflation FastICA left the 4 ICA cells failed.
    X, y = generated_counts(40, 0)
    cells = clustering_sweep(X, y, k=20, n_neighbors=10, seed=0, restarts=1)
    assert len(cells) == 20
    assert [(c.reduction, c.method) for c in cells if c.status != "ok"] == []


def test_sweep_caps_each_reducer_at_its_own_limit():
    # Ten count columns: PCA and ICA fit 10 components, KPCA and ISOMAP 20.
    X = np.random.default_rng(0).poisson(0.3, (60, 10)).astype(float)
    y = np.repeat([0, 1], 30)
    cells = clustering_sweep(X, y, k=20, seed=0, restarts=2)
    assert len(cells) == 20
    assert [(c.reduction, c.method, c.status) for c in cells if c.status != "ok"] == []


def test_sweep_fits_rank_deficient_counts_below_their_rank():
    # 20 centred rows have rank at most 19, so no reducer is asked for 20.
    X = np.random.default_rng(0).poisson(0.3, (20, 40)).astype(float)
    y = np.repeat([0, 1], 10)
    cells = clustering_sweep(X, y, k=20, seed=0, restarts=2)
    assert len(cells) == 20
    assert [(c.reduction, c.method, c.status) for c in cells if c.status != "ok"] == []


def test_sweep_label_length_mismatch():
    with pytest.raises(ValueError):
        clustering_sweep(np.zeros((4, 2)), [0, 1])


def test_write_sweep_format(tmp_path):
    cells = [
        SweepCell("PCA", KMEANS, 0.5, 0.25, "ok"),
        SweepCell("ISOMAP", GMM, None, None, "failed: graph, in 2 pieces"),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep(cells, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "reduction,method,adjusted_rand,adjusted_mutual_info,status"
    assert lines[1] == "PCA,KMEANS,0.5,0.25,ok"
    # commas inside a status message are sanitized to keep the CSV parseable
    assert lines[2] == "ISOMAP,GMM,,,failed: graph; in 2 pieces"
