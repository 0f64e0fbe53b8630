import itertools
import json
import math

import numpy as np
import pytest

from refractory.classify import TREE, ClassifierSpec
from refractory.metrics import (
    CvReport,
    accuracy,
    adjusted_mutual_info,
    adjusted_rand,
    auc,
    contingency_table,
    cross_val_proba,
    expected_mutual_info,
    kfold_cv,
    mutual_info,
    roc_curve,
    stratified_folds,
    write_cv_report,
    write_roc,
)


# ---------------------------------------------------------------------------
# Independent oracles


def _ari_pair_counting(a, b):
    """ARI straight from the pair-agreement definition, O(n^2)."""
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            if sa and sb:
                n11 += 1
            elif sa and not sb:
                n10 += 1
            elif not sa and sb:
                n01 += 1
            else:
                n00 += 1
    total = n11 + n10 + n01 + n00
    index = n11
    expected = (n11 + n10) * (n11 + n01) / total
    maximum = 0.5 * ((n11 + n10) + (n11 + n01))
    if maximum == expected:
        return 1.0 if n10 == n01 == 0 else 0.0
    return (index - expected) / (maximum - expected)


def _emi_exact(a, b):
    """E[MI] by direct hypergeometric summation with exact combinatorics."""
    table = contingency_table(a, b)
    n = table.n
    emi = 0.0
    for ai in table.row_marginals:
        for bj in table.col_marginals:
            for nij in range(max(1, ai + bj - n), min(ai, bj) + 1):
                pmf = (
                    math.comb(bj, nij)
                    * math.comb(n - bj, ai - nij)
                    / math.comb(n, ai)
                )
                emi += pmf * (nij / n) * math.log(n * nij / (ai * bj))
    return emi


def _auc_mann_whitney(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# Partition scores


def test_ari_identical_partitions():
    assert adjusted_rand([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert adjusted_rand(list("aabb"), [5, 5, 9, 9]) == 1.0


def test_ari_known_value():
    # one item moved between otherwise identical 2-cluster partitions
    got = adjusted_rand([0, 0, 1, 1], [0, 0, 1, 2])
    assert abs(got - _ari_pair_counting([0, 0, 1, 1], [0, 0, 1, 2])) < 1e-12


def test_ari_matches_pair_counting_on_random_partitions():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 3, size=n)
        assert abs(adjusted_rand(a, b) - _ari_pair_counting(a, b)) < 1e-12


def test_ari_symmetric():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 4, size=40)
    b = rng.integers(0, 3, size=40)
    assert adjusted_rand(a, b) == pytest.approx(adjusted_rand(b, a), abs=1e-15)


def test_ari_random_labelings_center_on_zero():
    rng = np.random.default_rng(2)
    vals = []
    for _ in range(100):
        a = rng.integers(0, 3, size=60)
        b = rng.integers(0, 3, size=60)
        vals.append(adjusted_rand(a, b))
    assert abs(np.mean(vals)) < 0.05


def test_ari_degenerate_cases():
    assert adjusted_rand([0, 0, 0], [1, 1, 1]) == 1.0
    assert adjusted_rand([0, 1, 2], [2, 0, 1]) == 1.0  # both all-singleton
    assert adjusted_rand([0, 0, 0], [0, 1, 2]) == 0.0


def test_ami_identical_partitions():
    assert adjusted_mutual_info([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert adjusted_mutual_info([0, 0, 0], [5, 5, 5]) == 1.0


def test_ami_constant_against_varied_is_zero():
    assert adjusted_mutual_info([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0


def test_expected_mutual_info_matches_exact_sum():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 2, size=n)
        got = expected_mutual_info(contingency_table(a, b))
        assert abs(got - _emi_exact(a, b)) < 1e-10


def test_ami_matches_definition_on_random_partitions():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        a = rng.integers(0, 2, size=n)
        b = rng.integers(0, 3, size=n)
        table = contingency_table(a, b)
        counts_a = table.row_marginals / n
        counts_b = table.col_marginals / n
        h_a = -sum(p * math.log(p) for p in counts_a if p > 0)
        h_b = -sum(p * math.log(p) for p in counts_b if p > 0)
        if h_a == 0.0 and h_b == 0.0:
            continue
        emi = _emi_exact(a, b)
        denom = 0.5 * (h_a + h_b) - emi
        if abs(denom) < 1e-15:
            continue
        want = (mutual_info(table) - emi) / denom
        assert abs(adjusted_mutual_info(a, b) - want) < 1e-10


def test_ami_symmetric():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 3, size=30)
    b = rng.integers(0, 4, size=30)
    assert adjusted_mutual_info(a, b) == pytest.approx(adjusted_mutual_info(b, a), abs=1e-12)


def test_partition_scores_reject_bad_shapes():
    with pytest.raises(ValueError):
        adjusted_rand([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        adjusted_mutual_info([], [])


# ---------------------------------------------------------------------------
# ROC / AUC


def test_roc_hand_example():
    curve = roc_curve([4.0, 3.0, 2.0, 1.0], [1, 1, 0, 0])
    np.testing.assert_array_equal(curve.fpr, [0.0, 0.0, 0.0, 0.5, 1.0])
    np.testing.assert_array_equal(curve.tpr, [0.0, 0.5, 1.0, 1.0, 1.0])
    assert curve.thresholds[0] == np.inf
    np.testing.assert_array_equal(curve.thresholds[1:], [4.0, 3.0, 2.0, 1.0])
    assert auc(curve) == 1.0


def test_roc_all_tied_scores_two_points():
    curve = roc_curve([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0])
    np.testing.assert_array_equal(curve.fpr, [0.0, 1.0])
    np.testing.assert_array_equal(curve.tpr, [0.0, 1.0])
    assert auc(curve) == 0.5


def test_roc_monotone_axes():
    rng = np.random.default_rng(6)
    scores = rng.normal(size=100)
    labels = (rng.random(100) > 0.4).astype(int)
    curve = roc_curve(scores, labels)
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)
    assert curve.fpr[0] == 0.0 and curve.fpr[-1] == 1.0
    assert curve.tpr[0] == 0.0 and curve.tpr[-1] == 1.0
    assert np.all(np.diff(curve.thresholds) < 0)


def test_auc_matches_mann_whitney_with_ties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        # coarse grid of scores forces plenty of ties
        scores = rng.integers(0, 5, size=n).astype(float)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        got = auc(roc_curve(scores, labels))
        assert abs(got - _auc_mann_whitney(scores, labels)) < 1e-12


def test_auc_complements_under_score_negation():
    rng = np.random.default_rng(8)
    scores = rng.normal(size=80)
    labels = (rng.random(80) > 0.5).astype(int)
    a = auc(roc_curve(scores, labels))
    b = auc(roc_curve(-scores, labels))
    assert abs(a + b - 1.0) < 1e-12


def test_roc_requires_both_classes():
    with pytest.raises(ValueError):
        roc_curve([0.1, 0.2], [1, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_roc_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError):
        roc_curve([0.9, bad, 0.2, 0.1], [1, 1, 0, 0])


def test_write_roc_format(tmp_path):
    curve = roc_curve([0.9, 0.1], [1, 0])
    path = tmp_path / "roc.csv"
    write_roc(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert lines[1] == "inf,0,0"
    assert len(lines) == 4


def test_accuracy_known_value():
    assert accuracy([1, 0, 1, 0], [1, 1, 1, 0]) == 0.75
    with pytest.raises(ValueError):
        accuracy([1, 0], [1, 0, 1])


# ---------------------------------------------------------------------------
# Cross-validation


def test_stratified_folds_partition_everything():
    rng = np.random.default_rng(9)
    y = rng.integers(0, 2, size=53)
    folds = stratified_folds(y, 7, seed=0)
    assert len(folds) == 7
    merged = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(merged, np.arange(53))


def test_stratified_folds_balance_each_class():
    y = np.array([0] * 35 + [1] * 14)
    folds = stratified_folds(y, 7, seed=1)
    for fold in folds:
        assert (y[fold] == 0).sum() == 5
        assert (y[fold] == 1).sum() == 2


def test_stratified_folds_deterministic_and_seed_sensitive():
    y = np.array([0, 1] * 20)
    a = stratified_folds(y, 4, seed=3)
    b = stratified_folds(y, 4, seed=3)
    c = stratified_folds(y, 4, seed=4)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
    assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))


def _dealt_one_at_a_time(y, k, seed):
    """Reference folds: each class shuffled, then dealt one sample at a time."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for pos, sample in enumerate(idx):
            folds[pos % k].append(int(sample))
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


def test_stratified_folds_match_a_one_at_a_time_deal():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n_classes = int(rng.integers(2, 4))
        y = np.concatenate([np.arange(n_classes).repeat(2), rng.integers(0, n_classes, size=rng.integers(0, 120))])
        k = int(rng.integers(2, np.bincount(y).min() + 1))
        seed = int(rng.integers(1000))
        for fold, expected in zip(stratified_folds(y, k, seed), _dealt_one_at_a_time(y, k, seed), strict=True):
            assert fold.dtype == np.int64
            np.testing.assert_array_equal(fold, expected)


def test_folds_reject_k_below_two():
    with pytest.raises(ValueError):
        stratified_folds(np.array([0, 1] * 5), 1, seed=0)


def test_kfold_cv_separable_data_perfect():
    rng = np.random.default_rng(10)
    X = np.vstack([rng.normal(size=(21, 2)), rng.normal(size=(21, 2)) + 8.0])
    y = np.repeat([0, 1], 21)
    report = kfold_cv(X, y, ClassifierSpec(method=TREE, max_depth=2), k=7, seed=0)
    assert report.mean == 1.0
    assert report.std == 0.0
    assert report.fold_accuracy == [1.0] * 7
    assert report.fold_auc == [1.0] * 7


def test_kfold_cv_small_class_fails_roc():
    # a class thinner than k leaves folds without both labels
    X = np.zeros((10, 2))
    y = np.array([1] + [0] * 9)
    with pytest.raises(ValueError):
        kfold_cv(X, y, ClassifierSpec(method=TREE), k=7, seed=0)


def test_cross_val_proba_returns_out_of_fold_scores():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(28, 2))
    y = np.array([0, 1] * 14)

    def fit_predict(train_X, train_y, test_X, fold_seed):
        return np.full(len(test_X), train_y.mean())

    report, oof = cross_val_proba(X, y, fit_predict, k=4, seed=0)
    assert not np.isnan(oof).any()
    assert report.k == 4
    np.testing.assert_allclose(oof, 0.5)


def test_cross_val_proba_fold_seeds_differ():
    seen = []

    def fit_predict(train_X, train_y, test_X, fold_seed):
        seen.append(fold_seed)
        return np.where(test_X[:, 0] > 0, 0.9, 0.1)

    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(int)
    cross_val_proba(X, y, fit_predict, k=3, seed=5)
    assert len(set(seen)) == 3


def test_write_cv_report_schema(tmp_path):
    report = CvReport(2, 0, [1.0, 0.5], [1.0, 0.75], 0.75, 0.25)
    path = tmp_path / "cv.json"
    write_cv_report(report, path)
    payload = json.loads(path.read_text())
    assert list(payload) == ["k", "seed", "fold_accuracy", "mean", "std", "fold_auc"]
    assert payload["mean"] == 0.75


def test_exhaustive_small_partitions_match_oracles():
    """Every pair of set partitions of 5 elements, scored both ways."""

    def partitions(n):
        if n == 0:
            yield []
            return
        for rest in partitions(n - 1):
            for i in range(len(rest)):
                yield rest[:i] + [rest[i] + [n - 1]] + rest[i + 1:]
            yield rest + [[n - 1]]

    def to_labels(blocks, n):
        labels = [0] * n
        for c, block in enumerate(blocks):
            for item in block:
                labels[item] = c
        return labels

    all_parts = [to_labels(p, 5) for p in partitions(5)]
    assert len(all_parts) == 52  # Bell number B(5)
    for a, b in itertools.combinations(all_parts, 2):
        assert abs(adjusted_rand(a, b) - _ari_pair_counting(a, b)) < 1e-12


def test_stratified_folds_reject_k_above_smallest_class():
    with pytest.raises(ValueError, match="smallest class"):
        stratified_folds(np.array([1] * 3 + [0] * 9), 4, seed=0)
    assert len(stratified_folds(np.array([1] * 4 + [0] * 9), 4, seed=0)) == 4
