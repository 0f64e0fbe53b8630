import warnings

import numpy as np
import pytest

from refractory import classify
from refractory import tree as tree_mod
from refractory.metrics import stratified_folds
from refractory.reduce import RBF, KernelSpec, fit_reducer, transform
from refractory.tree import (
    ENTROPY,
    VARIANCE,
    TreeNode,
    _entropy_of,
    accumulate_importance,
    bin_features,
    fit_binned_tree,
    fit_tree,
    predict_tree,
    tree_depth,
)


def _entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * np.log2(p) + (1 - p) * np.log2(1 - p))


def test_single_split_entropy_gain_matches_hand_value():
    # x <= 1.5 separates [0,0] from [1,1,1]; parent H(2/5), children pure.
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    root = fit_tree(X, y, max_depth=1, criterion=ENTROPY)
    assert root.feature == 0
    assert root.threshold == 1.5
    # gain is stored scaled by node mass (5 unit weights here)
    assert abs(root.gain - 5.0 * _entropy(0.4)) < 1e-12


def test_single_split_variance_gain_matches_hand_value():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 1.0, 5.0, 5.0])
    root = fit_tree(X, y, max_depth=1, criterion=VARIANCE)
    # parent variance 4, children variance 0, scaled by 4 unit weights
    assert root.threshold == 1.5
    assert abs(root.gain - 16.0) < 1e-12
    preds = predict_tree(root, X)
    np.testing.assert_allclose(preds, [1.0, 1.0, 5.0, 5.0])


def test_split_prefers_larger_gain_feature():
    # Feature 1 is a perfect separator; feature 0 is noise.
    X = np.array([[0.3, 0.0], [0.1, 0.0], [0.4, 1.0], [0.2, 1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    root = fit_tree(X, y, max_depth=1, criterion=ENTROPY)
    assert root.feature == 1


def test_tie_break_picks_lowest_feature_then_threshold():
    # Both features separate equally well; feature 0 must win.
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    root = fit_tree(X, y, max_depth=1, criterion=ENTROPY)
    assert root.feature == 0
    assert root.threshold == 0.5


def test_xor_needs_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], dtype=float)
    y = np.array([0.0, 1.0, 1.0, 0.0])
    shallow = fit_tree(X, y, max_depth=1, criterion=ENTROPY)
    assert np.abs(predict_tree(shallow, X) - y).max() >= 0.5
    deep = fit_tree(X, y, max_depth=2, criterion=ENTROPY)
    np.testing.assert_allclose(predict_tree(deep, X), y)
    assert tree_depth(deep) == 2


def test_constant_feature_yields_leaf():
    X = np.ones((6, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    root = fit_tree(X, y, max_depth=3, criterion=ENTROPY)
    assert root.feature is None
    assert abs(root.value - 0.5) < 1e-12


def test_pure_node_stops_early():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 3))
    y = np.ones(10)
    root = fit_tree(X, y, max_depth=5, criterion=VARIANCE)
    assert root.feature is None
    assert root.value == 1.0


def test_depth_never_exceeds_cap():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 4))
    y = (rng.random(200) > 0.5).astype(float)
    for cap in (1, 2, 3, 5):
        assert tree_depth(fit_tree(X, y, max_depth=cap, criterion=ENTROPY)) <= cap


def test_sample_weights_shift_split():
    # Unweighted the cut sits mid-span; upweighting the right pair drags the
    # optimum to isolate them exactly.
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    w = np.array([1.0, 1.0, 1.0, 1.0])
    root = fit_tree(X, y, max_depth=1, criterion=VARIANCE, sample_weight=w)
    assert root.threshold == 1.5
    w2 = np.array([1.0, 100.0, 100.0, 1.0])
    root2 = fit_tree(X, y, max_depth=1, criterion=VARIANCE, sample_weight=w2)
    assert root2.threshold == 1.5  # still the only zero-impurity cut
    preds = predict_tree(root2, X)
    np.testing.assert_allclose(preds, [0.0, 0.0, 1.0, 1.0])


def test_weighted_leaf_value_is_weighted_mean():
    X = np.zeros((3, 1))
    y = np.array([0.0, 0.0, 1.0])
    w = np.array([1.0, 1.0, 2.0])
    root = fit_tree(X, y, max_depth=1, criterion=VARIANCE, sample_weight=w)
    assert abs(root.value - 0.5) < 1e-12


def test_leaf_value_callback_overrides_mean():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    root = fit_tree(
        X, y, max_depth=1, criterion=VARIANCE, leaf_value=lambda idx: float(idx.sum())
    )
    preds = predict_tree(root, X)
    np.testing.assert_allclose(preds, [1.0, 1.0, 5.0, 5.0])  # 0+1 and 2+3


def test_importance_concentrates_on_informative_feature():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 3))
    y = (X[:, 1] > 0).astype(float)
    root = fit_tree(X, y, max_depth=3, criterion=ENTROPY)
    imp = np.zeros(3)
    accumulate_importance(root, imp, root.weight)
    assert imp[1] == imp.max()
    assert imp[1] > 0.9 * imp.sum()


def test_importance_zero_for_leaf_only_tree():
    root = fit_tree(np.ones((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]), max_depth=2,
                    criterion=ENTROPY)
    imp = np.zeros(2)
    accumulate_importance(root, imp, root.weight)
    np.testing.assert_array_equal(imp, 0.0)


def test_predict_narrower_matrix_raises():
    X = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 4.0], [0.0, 6.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    root = fit_tree(X, y, max_depth=2, criterion=VARIANCE)
    assert root.feature == 1
    with pytest.raises(IndexError):
        predict_tree(root, np.zeros((2, 1)))


def test_threshold_is_midpoint_of_adjacent_values():
    X = np.array([[1.0], [2.0], [10.0]])
    y = np.array([0.0, 0.0, 1.0])
    root = fit_tree(X, y, max_depth=1, criterion=VARIANCE)
    assert root.threshold == 6.0


def test_duplicate_feature_values_never_split_between_ties():
    X = np.array([[1.0], [1.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    root = fit_tree(X, y, max_depth=1, criterion=ENTROPY)
    assert root.threshold == 1.5


@pytest.mark.parametrize("criterion", [ENTROPY, VARIANCE])
def test_threshold_between_adjacent_floats_separates_them(criterion):
    # The midpoint of two adjacent floats rounds to the upper one.
    lo, hi = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    root = fit_tree(np.array([[lo], [hi]]), np.array([0.0, 1.0]), max_depth=1, criterion=criterion)
    assert root.threshold == lo
    assert (root.left.n_samples, root.right.n_samples) == (1, 1)
    np.testing.assert_array_equal(predict_tree(root, np.array([[lo], [hi], [1.5]])), [0.0, 1.0, 1.0])


def test_fit_validates_shapes():
    with pytest.raises(ValueError):
        fit_tree(np.zeros((3, 2)), np.zeros(4), max_depth=1, criterion=ENTROPY)
    with pytest.raises(ValueError):
        fit_tree(np.zeros((3, 2)), np.zeros(3), max_depth=1, criterion="gini")
    with pytest.raises(ValueError):
        fit_tree(np.zeros((0, 2)), np.zeros(0), max_depth=1, criterion=ENTROPY)


def test_node_counts_track_subset_sizes():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    root = fit_tree(X, y, max_depth=1, criterion=ENTROPY)
    assert root.n_samples == 6
    assert root.left.n_samples == 3
    assert root.right.n_samples == 3


@pytest.mark.parametrize(
    "X, y, w",
    [
        ([[0.0], [1.0], [2.0]], [0.0, 1.0, 1.0], [1.0, np.nan, 1.0]),
        ([[0.0], [np.nan], [2.0]], [0.0, 1.0, 1.0], None),
        ([[0.0], [np.inf], [2.0]], [0.0, 1.0, 1.0], None),
        ([[0.0], [1.0], [2.0]], [0.0, np.nan, 1.0], None),
    ],
    ids=["nan-weight", "nan-x", "inf-x", "nan-y"],
)
def test_fit_rejects_non_finite_input(X, y, w):
    with pytest.raises(ValueError):
        fit_tree(np.array(X), np.array(y), criterion=VARIANCE, sample_weight=w)


@pytest.mark.parametrize("criterion", [ENTROPY, VARIANCE])
def test_zero_weight_rows_never_form_a_nan_leaf(criterion):
    # A zero-gain split could once leave only zero-weight rows on one side:
    # a 0/0 leaf value that predict_tree returned for those rows.
    rng = np.random.default_rng(123)
    X = rng.integers(0, 3, size=(22, 2)).astype(float)
    y = rng.integers(0, 2, 22).astype(float)
    w = rng.random(22) * (rng.random(22) < 0.5)
    root = fit_tree(X, y, criterion=criterion, max_depth=4, sample_weight=w)
    assert np.isfinite(predict_tree(root, X)).all()
    stack = [root]
    while stack:
        node = stack.pop()
        assert node.weight > 0
        if not node.is_leaf:
            stack += [node.left, node.right]


# The recursive builder that the level-wise one replaced, kept as the
# reference. One rule is new in both: a split must leave positive weight on
# each side.
def _reference_split(X, y, w, criterion):
    if X.shape[0] < 2:
        return None
    total_w = w.sum()
    if criterion == ENTROPY:
        parent = float(_entropy_of((w * y).sum() / total_w))
    else:
        mean = (w * y).sum() / total_w
        parent = float((w * (y - mean) ** 2).sum() / total_w)
    if parent <= 1e-12:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    sv = np.take_along_axis(X, order, axis=0)
    sy, sw = y[order], w[order]
    positive = np.cumsum(sw > 0, axis=0)
    valid = (sv[1:] > sv[:-1]) & (positive[:-1] > 0) & (positive[:-1] < positive[-1])
    if not valid.any():
        return None
    cwy = np.cumsum(sw * sy, axis=0)
    wl = np.cumsum(sw, axis=0)[:-1]
    wr = total_w - wl
    yl = cwy[:-1]
    yr = cwy[-1] - yl
    safe_wl = np.maximum(wl, 1e-12)
    safe_wr = np.maximum(wr, 1e-12)
    if criterion == ENTROPY:
        child = (wl * _entropy_of(yl / safe_wl) + wr * _entropy_of(yr / safe_wr)) / total_w
    else:
        cwy2 = np.cumsum(sw * sy * sy, axis=0)
        y2l = cwy2[:-1]
        y2r = cwy2[-1] - y2l
        child = ((y2l - yl * yl / safe_wl) + (y2r - yr * yr / safe_wr)) / total_w
    gains = np.where(valid, np.maximum(parent - child, 0.0), -np.inf)
    col_best = gains.max(axis=0)
    best_gain = float(col_best.max())
    feature = int(np.argmax(col_best >= best_gain - 1e-12))
    pos = int(np.argmax(gains[:, feature] >= col_best[feature] - 1e-12))
    threshold = float((sv[pos, feature] + sv[pos + 1, feature]) / 2.0)
    return feature, threshold, float(gains[pos, feature])


def _reference_tree(X, y, criterion, max_depth, w, leaf_value):
    w = np.ones(len(y)) if w is None else w

    def build(idx, depth):
        wi = w[idx]
        value = float((wi * y[idx]).sum() / wi.sum()) if leaf_value is None else leaf_value(idx)
        node = TreeNode(value=value, n_samples=int(idx.size), weight=float(wi.sum()))
        found = None if depth >= max_depth else _reference_split(X[idx], y[idx], wi, criterion)
        if found is None:
            return node
        node.feature, node.threshold, gain = found
        node.gain = gain * node.weight
        go_left = X[idx, node.feature] <= node.threshold
        node.left = build(idx[go_left], depth + 1)
        node.right = build(idx[~go_left], depth + 1)
        return node

    return build(np.arange(len(y)), 0)


def _reference_case(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
    X = [
        rng.integers(0, 4, size=(n, d)).astype(float),  # many ties
        np.round(rng.normal(size=(n, d)), 1),
        rng.normal(size=(n, d)),
    ][seed % 3]
    criterion = (ENTROPY, VARIANCE)[seed // 3 % 2]
    if criterion == ENTROPY:
        y = (rng.random(n) < 0.5).astype(float)
    else:
        y = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
    w = [None, rng.random(n), rng.random(n) * (rng.random(n) < 0.6)][seed // 6 % 3]
    if w is not None and w.sum() <= 0:
        w[0] = 1.0
    leaf_value = None
    if seed // 18 % 2:
        residual, hessian = rng.normal(size=n), rng.random(n)
        leaf_value = lambda idx: float(residual[idx].sum() / max(hessian[idx].sum(), 1e-12))
    return X, y, criterion, seed % 7, w, leaf_value


def test_level_wise_builder_matches_recursive_reference():
    for seed in range(300):
        X, y, criterion, depth, w, leaf_value = _reference_case(seed)
        got = fit_tree(X, y, criterion=criterion, max_depth=depth, sample_weight=w,
                       leaf_value=leaf_value)
        want = _reference_tree(X, y, criterion, depth, w, leaf_value)
        assert repr(got) == repr(want), seed


# ---------------------------------------------------------------------------
# Binned features and the histogram builder


def _fit_tree_midpoints(column):
    """fit_tree's candidate thresholds on one column, written out."""
    u = np.unique(column)
    mid = (u[:-1] + u[1:]) / 2.0
    return np.where(mid == u[1:], u[:-1], mid)


def _assert_codes_match_thresholds(X, codes, thresholds):
    assert codes.dtype == np.uint8 and codes.shape == X.T.shape
    for f, t in enumerate(thresholds):
        b = np.arange(len(t))[:, None]
        np.testing.assert_array_equal(X[:, f][None, :] <= t[:, None], codes[f][None, :] <= b)


_BINNED_KINDS = ("normal", "integer-ties", "n-below-64")


def _binned_case(seed):
    """Rows of kind _BINNED_KINDS[seed % 3], with a gradient r, a positive
    hessian h and a depth cap."""
    rng = np.random.default_rng(seed)
    kind = _BINNED_KINDS[seed % 3]
    n = int(rng.integers(2, 64)) if kind == "n-below-64" else int(rng.integers(64, 300))
    d = int(rng.integers(1, 6))
    if kind == "integer-ties":
        X = rng.integers(0, 12, size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
    return X, rng.normal(size=n), rng.random(n), int(rng.integers(0, 7))


def test_bin_features_keeps_every_fit_tree_midpoint_at_64_values_or_fewer():
    rng = np.random.default_rng(0)
    X = np.column_stack([
        rng.permutation(np.arange(300) % 64).astype(float),  # 64 distinct values
        np.round(rng.normal(size=300), 1),            # about 40
        np.tile([1.0 + 2.0**-52, 1.0 + 2.0**-51], 150),
    ])
    assert len(np.unique(X[:, 0])) == 64
    codes, thresholds = bin_features(X)
    for f in range(X.shape[1]):
        np.testing.assert_array_equal(thresholds[f], _fit_tree_midpoints(X[:, f]))
    assert thresholds[2].tolist() == [1.0 + 2.0**-52]
    adjacent = fit_tree(X[:2, 2:], np.array([0.0, 1.0]), max_depth=1, criterion=VARIANCE)
    assert adjacent.threshold == thresholds[2][0]
    _assert_codes_match_thresholds(X, codes, thresholds)


def test_bin_features_constant_column_never_splits():
    rng = np.random.default_rng(1)
    X = np.column_stack([np.full(80, 3.0), rng.normal(size=80)])
    codes, thresholds = bin_features(X)
    assert len(thresholds[0]) == 0
    np.testing.assert_array_equal(codes[0], 0)
    root, _ = fit_binned_tree(codes, thresholds, rng.normal(size=80), np.ones(80), max_depth=5)
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            assert node.feature == 1
            stack += [node.left, node.right]
    codes, thresholds = bin_features(X[:, :1])
    root, leaf = fit_binned_tree(codes, thresholds, rng.normal(size=80), np.ones(80), max_depth=5)
    assert root.is_leaf and (leaf == root.value).all()


def test_bin_features_quantile_boundaries_over_64_values():
    rng = np.random.default_rng(2)
    n = 64 * 7
    X = np.column_stack([
        np.where(rng.random(n) < 0.4, 0.0, rng.poisson(1000, n)),  # 40% tied at zero
        np.round(rng.normal(size=n), 2),  # about 250 distinct values, many tied
        rng.permutation(n).astype(float),  # all distinct
    ])
    codes, thresholds = bin_features(X)
    for f, t in enumerate(thresholds):
        column = X[:, f]
        assert len(np.unique(column)) > 64
        assert 1 <= len(t) <= 63
        assert (np.diff(t) > 0).all()
        # Each threshold sits at a boundary between consecutive distinct values.
        for threshold in t:
            lo, hi = column[column <= threshold].max(), column[column > threshold].min()
            assert threshold == _fit_tree_midpoints(np.array([lo, hi]))[0]
    # Distinct values fill the 64 quantile bins equally; the zeros fill one.
    np.testing.assert_array_equal(np.bincount(codes[2]), np.full(64, 7))
    assert np.bincount(codes[0])[0] == (X[:, 0] == 0).sum()
    _assert_codes_match_thresholds(X, codes, thresholds)


def _reference_binned_split(codes, thresholds, r, idx):
    """Every (feature, bin) of one node scored by brute force, as
    (G_L^2/n_L + G_R^2/n_R - G^2/n) / n clipped at 0; ties within 1e-12 go to
    the lowest feature, then the lowest bin."""
    n, G = idx.size, r[idx].sum()
    if n < 2 or np.var(r[idx]) <= 1e-12:
        return None
    scores = np.full((len(thresholds), 64), -np.inf)
    for f, t in enumerate(thresholds):
        for b in range(len(t)):
            left = codes[f, idx] <= b
            n_left = int(left.sum())
            if 0 < n_left < n:
                g_left, g_right = r[idx][left].sum(), r[idx][~left].sum()
                decrease = (g_left**2 / n_left + g_right**2 / (n - n_left) - G**2 / n) / n
                scores[f, b] = max(decrease, 0.0)
    col_best = scores.max(axis=1)
    if not np.isfinite(col_best.max()):
        return None
    f = int(np.argmax(col_best >= col_best.max() - 1e-12))
    b = int(np.argmax(scores[f] >= col_best[f] - 1e-12))
    return f, b, float(scores[f, b])


def _newton_step(r, h):
    # Summed in row order, as the builder's per-node bincount sums are.
    return float(np.cumsum(r)[-1] / max(np.cumsum(h)[-1], 1e-12))


def test_binned_builder_matches_brute_force_reference():
    for seed in range(60):
        X, r, h, max_depth = _binned_case(seed)
        codes, thresholds = bin_features(X)
        root, _ = fit_binned_tree(codes, thresholds, r, h, max_depth=max_depth)
        stack = [(root, np.arange(len(r)), 0)]
        while stack:
            node, idx, depth = stack.pop()
            assert node.n_samples == idx.size and node.weight == idx.size, seed
            assert node.value == _newton_step(r[idx], h[idx]), seed
            found = None if depth == max_depth else _reference_binned_split(codes, thresholds, r, idx)
            if found is None:
                assert node.is_leaf, seed
                continue
            f, b, decrease = found
            assert (node.feature, node.threshold) == (f, thresholds[f][b]), seed
            assert node.gain == pytest.approx(decrease * idx.size, rel=1e-9, abs=1e-12), seed
            left = codes[f, idx] <= b
            stack += [(node.left, idx[left], depth + 1), (node.right, idx[~left], depth + 1)]


@pytest.mark.parametrize("kind", _BINNED_KINDS)
def test_binned_leaf_values_equal_predict_tree(kind):
    for seed in range(_BINNED_KINDS.index(kind), 90, 3):
        X, r, h, max_depth = _binned_case(seed)
        root, leaf = fit_binned_tree(*bin_features(X), r, h, max_depth=max_depth)
        np.testing.assert_array_equal(leaf, predict_tree(root, X))


def test_binned_max_depth_zero_is_one_leaf():
    X, r, h, _ = _binned_case(0)
    root, leaf = fit_binned_tree(*bin_features(X), r, h, max_depth=0)
    assert root.is_leaf
    assert root.value == _newton_step(r, h)
    np.testing.assert_array_equal(leaf, root.value)


def test_binned_without_features_is_one_leaf():
    r = np.arange(5.0)
    root, leaf = fit_binned_tree(np.empty((0, 5), dtype=np.uint8), [], r, np.ones(5), max_depth=3)
    assert root.is_leaf and root.value == 2.0
    np.testing.assert_array_equal(leaf, 2.0)


def test_binned_repeat_fits_are_identical():
    for seed in range(12):
        X, r, h, max_depth = _binned_case(seed)
        first = fit_binned_tree(*bin_features(X), r, h, max_depth=max_depth)
        second = fit_binned_tree(*bin_features(X), r, h, max_depth=max_depth)
        assert repr(first[0]) == repr(second[0])
        np.testing.assert_array_equal(first[1], second[1])


# ---------------------------------------------------------------------------
# fit_tree's contract at the scale TREE and AdaBoost fit it


@pytest.mark.parametrize("y", [[-1.0, 1.0, -1.0, 1.0], [0.0, 2.0, 0.0, 2.0], [0.0, 0.5, 1.0, 1.0]])
def test_entropy_rejects_targets_outside_zero_and_one(y):
    X = np.arange(4.0)[:, None]
    with pytest.raises(ValueError, match="0 or 1"):
        fit_tree(X, np.array(y), criterion=ENTROPY, max_depth=3)
    # The variance criterion takes any real target.
    assert not fit_tree(X, np.array(y), criterion=VARIANCE, max_depth=3).is_leaf


def _nodes_breadth_first(root, X):
    """(node, ascending row indices) for every node, in breadth-first order."""
    out, level = [], [(root, np.arange(X.shape[0]))]
    while level:
        out += level
        below = []
        for node, idx in level:
            if not node.is_leaf:
                go_left = X[idx, node.feature] <= node.threshold
                below += [(node.left, idx[go_left]), (node.right, idx[~go_left])]
        level = below
    return out


@pytest.mark.parametrize("criterion", [ENTROPY, VARIANCE])
def test_leaf_value_is_called_once_per_node_breadth_first(criterion):
    rng = np.random.default_rng(7)
    X = np.round(rng.normal(size=(120, 3)), 1)
    y = (X[:, 0] * X[:, 1] + 0.5 * rng.normal(size=120) > 0).astype(float)
    w = rng.random(120) * (rng.random(120) < 0.8)
    calls = []

    def leaf_value(idx):
        calls.append(np.array(idx))
        return float(len(calls))

    root = fit_tree(X, y, criterion=criterion, max_depth=4, sample_weight=w, leaf_value=leaf_value)
    nodes = _nodes_breadth_first(root, X)
    assert len(nodes) > 15  # deep enough that breadth-first and depth-first orders differ
    assert len(calls) == len(nodes)
    for k, ((node, idx), seen) in enumerate(zip(nodes, calls)):
        assert node.value == k + 1
        assert (np.diff(seen) > 0).all()
        np.testing.assert_array_equal(seen, idx)


def _assert_matches_reference(X, y, criterion, max_depth, w=None):
    got = fit_tree(X, y, criterion=criterion, max_depth=max_depth, sample_weight=w)
    want = _reference_tree(X, y, criterion, max_depth, w, None)
    assert repr(got) == repr(want)
    return got


def test_depth_five_tree_matches_reference_at_343_by_20():
    # TREE's traffic: one unweighted depth-5 entropy tree per CV fold, on
    # 343 continuous embedding rows of 20 components.
    rng = np.random.default_rng(11)
    X = rng.normal(size=(343, 20))
    y = (np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.3 * rng.normal(size=343) > 0).astype(float)
    root = _assert_matches_reference(X, y, ENTROPY, 5)
    assert tree_depth(root) == 5


def test_adaboost_stumps_match_reference_at_343_by_20():
    # AdaBoost's traffic: 100 entropy stumps, each under the discrete
    # AdaBoost weights the stumps before it leave.
    rng = np.random.default_rng(12)
    X = rng.normal(size=(343, 20))
    y = (X[:, 0] ** 2 + X[:, 1] ** 2 + 0.5 * rng.normal(size=343) > 1.4).astype(float)
    w = np.full(343, 1.0 / 343)
    for _ in range(100):
        stump = _assert_matches_reference(X, y, ENTROPY, 1, w)
        wrong = (predict_tree(stump, X) >= 0.5) != (y == 1.0)
        err = w[wrong].sum() / w.sum()
        assert 0.0 < err < 0.5
        alpha = 0.5 * np.log((1.0 - err) / err)
        w = w * np.exp(np.where(wrong, alpha, -alpha))
        w /= w.sum()


@pytest.mark.parametrize("criterion", [ENTROPY, VARIANCE])
def test_tied_rows_with_zero_weights_match_reference_at_320_rows(criterion):
    rng = np.random.default_rng(13)
    X = rng.integers(0, 5, size=(320, 8)).astype(float)
    y = (X[:, 0] + X[:, 1] + rng.integers(0, 3, 320) > 5).astype(float)
    w = rng.random(320) * (rng.random(320) < 0.6)
    root = _assert_matches_reference(X, y, criterion, 5, w)
    assert tree_depth(root) == 5


# ---------------------------------------------------------------------------
# fit_binned_tree against the builder it replaced, bit for bit
#
# The reference below is the level builder as it stood before each level's
# histogram became complex (count, sum) cells over all rows: it gathers each
# level's live rows, takes two cumsums, clamps empty sides to 1 and masks
# them to -inf. Every tree the current
# builder grows must equal its tree in repr, and every leaf array must equal
# its leaf array byte for byte.

_REF_TINY = 1e-12
_REF_HESSIAN_FLOOR = 1e-12


def _ref_fit_binned_tree(codes, thresholds, r, h, *, max_depth):
    r = np.asarray(r, dtype=float)
    h = np.asarray(h, dtype=float)
    d, n = codes.shape
    width = max((len(t) for t in thresholds), default=0) + 1
    bin_offset = (np.arange(d) * width)[:, None]
    leaf = np.empty(n)
    rows = np.arange(n)
    node = np.zeros(n, dtype=np.intp)
    parents = []
    root = None
    for depth in range(max_depth + 1):
        K = max(len(parents), 1)
        r_rows = r[rows]
        count = np.bincount(node, minlength=K)
        total = np.bincount(node, weights=r_rows, minlength=K)
        value = total / np.maximum(np.bincount(node, weights=h[rows], minlength=K), _REF_HESSIAN_FLOOR)
        nodes = [
            TreeNode(value=v, n_samples=c, weight=float(c))
            for v, c in zip(value.tolist(), count.tolist())
        ]
        if root is None:
            root = nodes[0]
        for (up, side), child in zip(parents, nodes):
            setattr(up, side, child)
        if depth == max_depth:
            break
        spread = np.bincount(node, weights=(r_rows - (total / count)[node]) ** 2, minlength=K) / count
        cand = np.flatnonzero((count >= 2) & (spread > _REF_TINY))
        if cand.size == 0:
            break
        cand_of = np.full(K, cand.size)
        cand_of[cand] = np.arange(cand.size)
        found = _ref_best_bins(codes, rows, cand_of[node], r_rows, cand.size, width, bin_offset)
        if found is None:
            break
        split, feature, bin_, decrease = found
        split = cand[split]
        for k, f, b, g in zip(split.tolist(), feature.tolist(), bin_.tolist(), decrease.tolist()):
            up = nodes[k]
            up.feature, up.threshold, up.gain = f, float(thresholds[f][b]), g * up.n_samples
        split_of = np.full(K, -1)
        split_of[split] = np.arange(split.size)
        split_of = split_of[node]
        done = split_of < 0
        leaf[rows[done]] = value[node[done]]
        rows, split_of = rows[~done], split_of[~done]
        node = 2 * split_of + (codes[feature[split_of], rows] > bin_[split_of])
        parents = [(nodes[k], side) for k in split.tolist() for side in ("left", "right")]
    leaf[rows] = value[node]
    return root, leaf


def _ref_best_bins(codes, rows, slot, r_rows, C, width, bin_offset):
    d = codes.shape[0]
    live = slot < C
    at = (slot[live] * (d * width) + bin_offset + codes[:, rows[live]]).ravel()
    size = C * d * width
    n_left = np.bincount(at, minlength=size).reshape(C, d, width)
    g_left = np.bincount(
        at, weights=np.repeat(r_rows[live][None, :], d, axis=0).ravel(), minlength=size
    ).reshape(C, d, width)
    np.cumsum(n_left, axis=2, out=n_left)
    np.cumsum(g_left, axis=2, out=g_left)
    n_all, g_all = n_left[:, :, -1:], g_left[:, :, -1:].copy()
    n_right = n_all - n_left
    g_right = g_all - g_left
    valid = (n_left > 0) & (n_right > 0)
    np.maximum(n_left, 1, out=n_left)
    np.maximum(n_right, 1, out=n_right)
    score = g_left
    score *= score
    score /= n_left
    g_right *= g_right
    g_right /= n_right
    score += g_right
    score -= g_all**2 / n_all
    score /= n_all
    np.maximum(score, 0.0, out=score)
    score[~valid] = -np.inf
    found = _ref_near_best(score)
    if found is None:
        return None
    split, feature, bin_ = found
    return split, feature, bin_, score[split, feature, bin_]


def _ref_near_best(score):
    col_best = score.max(axis=2, initial=-np.inf)
    best = col_best.max(axis=1, initial=-np.inf)
    nodes = np.flatnonzero(np.isfinite(best))
    if nodes.size == 0:
        return None
    feature = np.argmax(col_best[nodes] >= best[nodes, None] - _REF_TINY, axis=1)
    at = np.argmax(score[nodes, feature] >= col_best[nodes, feature][:, None] - _REF_TINY, axis=1)
    return nodes, feature, at


def _assert_binned_matches_reference(codes, thresholds, r, h, max_depth):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_binned_tree(codes, thresholds, r, h, max_depth=max_depth)
        want = _ref_fit_binned_tree(codes, thresholds, r, h, max_depth=max_depth)
    assert repr(got[0]) == repr(want[0])
    assert got[1].tobytes() == want[1].tobytes()
    return got


def test_binned_builder_is_bit_equal_to_reference_on_random_cases():
    for seed in range(300):
        X, r, h, max_depth = _binned_case(seed)
        _assert_binned_matches_reference(*bin_features(X), r, h, max_depth)


def test_binned_builder_is_bit_equal_to_reference_on_tied_residuals():
    # Residuals drawn from a few values, as in GBDT's first stage, where
    # r = y - mean(y): splits that cannot lower the variance score 0 up to
    # rounding, on either side of it, so the clip at 0 and the near-tie
    # rule decide them.
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(3, 40)), int(rng.integers(1, 4))
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        r = rng.choice([0.1, 0.2, 0.3, 0.7, 1 / 3], size=3)[rng.integers(0, 3, size=n)]
        _assert_binned_matches_reference(*bin_features(X), r, rng.random(n) + 0.5, 3)


def test_binned_builder_is_bit_equal_to_reference_at_depth_seven():
    # r rises with the first feature, so splits fall near each node's median
    # and all 64 nodes of depth 6 form: that level scores up to 64
    # candidates at once, more than half of which split.
    rng = np.random.default_rng(7)
    X = rng.random(size=(2000, 3))
    r = 4 * X[:, 0] + 0.3 * rng.normal(size=2000)
    root, _ = _assert_binned_matches_reference(*bin_features(X), r, rng.random(2000), 7)
    level = [root]
    for _ in range(6):
        level = [child for node in level for child in (node.left, node.right)]
    assert len(level) == 64
    assert sum(not node.is_leaf for node in level) > 32


@pytest.mark.parametrize("seed", [0, 32])
def test_gbdt_stage_trees_are_bit_equal_to_reference_on_kpca_folds(generated_counts, monkeypatch, seed):
    # The seeds-400 traffic: KPCA(20, RBF) on 200 + 200 patients, then a
    # default GBDT fit on each of the 7 training folds. Every stage tree is
    # grown by both builders from the same residuals.
    counts, y = generated_counts(200, seed)
    emb = transform(fit_reducer("KPCA", counts, 20, kernel=KernelSpec(RBF)), counts).values
    stages = []

    def both(codes, thresholds, r, h, *, max_depth):
        stages.append(max_depth)
        return _assert_binned_matches_reference(codes, thresholds, r, h, max_depth)

    monkeypatch.setattr(tree_mod, "fit_binned_tree", both)
    spec = classify.ClassifierSpec(method=classify.GBDT)
    for test_rows in stratified_folds(y, 7, seed):
        train = np.setdiff1d(np.arange(len(y)), test_rows)
        classify.fit_classifier(spec, emb[train], y[train])
    assert stages == [spec.max_depth] * (7 * spec.n_stages)
