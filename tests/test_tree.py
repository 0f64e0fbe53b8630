import numpy as np
import pytest

from refractory.tree import (
    ENTROPY,
    VARIANCE,
    TreeNode,
    _entropy_of,
    accumulate_importance,
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
