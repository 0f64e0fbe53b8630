import numpy as np
import pytest

from refractory.tree import (
    ENTROPY,
    VARIANCE,
    TreeNode,
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
