"""Partition scores, ROC/AUC, and the cross-validation harness.

Adjusted Rand and adjusted mutual information both correct for chance under
the permutation model with fixed marginals; AMI normalizes by the arithmetic
mean of the two partition entropies. ROC sweeps descending unique score
thresholds, AUC is the trapezoid area (equivalently the Mann-Whitney
statistic with ties counted half).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import classify
from .tables import format_row, write_json, write_table


@dataclass(frozen=True)
class ContingencyTable:
    counts: np.ndarray          # (n_clusters_a, n_clusters_b) co-occurrence counts
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    n: int


def contingency_table(a: Sequence, b: Sequence) -> ContingencyTable:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("partitions must be 1-d and the same length")
    if a.size == 0:
        raise ValueError("partitions must be non-empty")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    counts = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(counts, (ai, bi), 1)
    return ContingencyTable(counts, counts.sum(axis=1), counts.sum(axis=0), int(a.size))


def _comb2(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) / 2.0


def adjusted_rand(a: Sequence, b: Sequence) -> float:
    """Hubert-Arabie adjusted Rand index.

    Defined as 1 when both partitions are degenerate in the same way (the
    chance-correction denominator vanishes only when both are single-cluster
    or both all-singletons), matching the identical-partitions convention.
    """
    table = contingency_table(a, b)
    index = _comb2(table.counts.astype(float)).sum()
    sum_a = _comb2(table.row_marginals.astype(float)).sum()
    sum_b = _comb2(table.col_marginals.astype(float)).sum()
    total = _comb2(float(table.n))
    if total == 0.0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        # Degenerate: both single-cluster (or both all-singleton) partitions.
        same = len(table.row_marginals) == len(table.col_marginals) and (
            np.count_nonzero(table.counts) == len(table.row_marginals)
        )
        return 1.0 if same else 0.0
    return float((index - expected) / (maximum - expected))


def _entropy(marginals: np.ndarray, n: int) -> float:
    p = marginals[marginals > 0] / n
    return float(-(p * np.log(p)).sum())


def mutual_info(table: ContingencyTable) -> float:
    n = table.n
    nz = table.counts[table.counts > 0].astype(float)
    rows, cols = np.nonzero(table.counts)
    outer = table.row_marginals[rows] * table.col_marginals[cols]
    return float((nz / n * (np.log(nz * n) - np.log(outer.astype(float)))).sum())


def expected_mutual_info(table: ContingencyTable) -> float:
    """E[MI] over random contingency tables with these marginals.

    Each cell count follows a hypergeometric law under the permutation
    model; the sum runs over all feasible cell values, with factorials via
    log-gamma.
    """
    from scipy.special import gammaln  # deferred: only AMI needs scipy here

    n = table.n
    emi = 0.0
    lgn = gammaln(n + 1)
    for ai in table.row_marginals:
        for bj in table.col_marginals:
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            if lo > hi:
                continue
            nij = np.arange(lo, hi + 1, dtype=float)
            term = nij / n * (np.log(n * nij) - np.log(float(ai) * bj))
            log_pmf = (
                gammaln(ai + 1)
                + gammaln(bj + 1)
                + gammaln(n - ai + 1)
                + gammaln(n - bj + 1)
                - lgn
                - gammaln(nij + 1)
                - gammaln(ai - nij + 1)
                - gammaln(bj - nij + 1)
                - gammaln(n - ai - bj + nij + 1)
            )
            emi += float((term * np.exp(log_pmf)).sum())
    return emi


def adjusted_mutual_info(a: Sequence, b: Sequence) -> float:
    """AMI with arithmetic-mean entropy normalization.

    Both partitions single-cluster: 1.0 (identical). One constant partition
    against a non-constant one: 0.0 (zero mutual information and zero
    expected mutual information, with a positive normalizer).
    """
    table = contingency_table(a, b)
    h_a = _entropy(table.row_marginals, table.n)
    h_b = _entropy(table.col_marginals, table.n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    mi = mutual_info(table)
    emi = expected_mutual_info(table)
    denominator = 0.5 * (h_a + h_b) - emi
    if abs(denominator) < 1e-15:
        return 0.0
    return float((mi - emi) / denominator)


# ---------------------------------------------------------------------------
# ROC / AUC


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # descending; leading +inf yields the (0, 0) corner
    fpr: np.ndarray
    tpr: np.ndarray


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> RocCurve:
    """Sweep descending unique thresholds; tied scores collapse to one point."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if scores.shape != y.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d and the same length")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    pos = int((y == 1).sum())
    neg = int(y.size - pos)
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = (y[order] == 1).astype(np.int64)
    tp = np.cumsum(sorted_pos)
    fp = np.cumsum(1 - sorted_pos)
    # Keep only the last index of each tied-score run.
    last = np.r_[np.flatnonzero(np.diff(sorted_scores)), y.size - 1]
    thresholds = np.r_[np.inf, sorted_scores[last]]
    fpr = np.r_[0.0, fp[last] / neg]
    tpr = np.r_[0.0, tp[last] / pos]
    return RocCurve(thresholds, fpr, tpr)


def auc(curve: RocCurve) -> float:
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(curve.tpr, curve.fpr))


def accuracy(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch")
    return float((y_true == y_pred).mean())


ROC_HEADER = "threshold,fpr,tpr"


def write_roc(curve: RocCurve, path: str | Path) -> None:
    rows = zip(curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist())
    write_table(path, ROC_HEADER, map(format_row, rows))


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass
class CvReport:
    k: int
    seed: int
    fold_accuracy: list[float]
    fold_auc: list[float]
    mean: float
    std: float  # population standard deviation (divide by k)


def stratified_folds(y: Sequence[int], k: int, seed: int) -> list[np.ndarray]:
    """Deal each class round-robin into k folds after a seeded shuffle.

    Per-class fold sizes differ by at most one, so class proportions are
    preserved as closely as integer arithmetic allows.
    """
    y = np.asarray(y)
    if k < 2:
        raise ValueError("k must be at least 2")
    classes, counts = np.unique(y, return_counts=True)
    if counts.size and k > counts.min():
        raise ValueError(f"k={k} exceeds the {counts.min()} members of the smallest class")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(y.shape[0], dtype=np.int64)
    for cls in classes:
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for f in range(k):
            fold_of[idx[f::k]] = f
    return [np.flatnonzero(fold_of == f).astype(np.int64, copy=False) for f in range(k)]


def cross_val_proba(
    X: np.ndarray,
    y: Sequence[int],
    fit_predict: Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray],
    k: int = 7,
    seed: int = 0,
) -> tuple[CvReport, np.ndarray]:
    """Run k-fold CV and return the report plus out-of-fold scores.

    fit_predict(train_X, train_y, test_X, fold_seed) must return positive
    class probabilities for the test rows; each fold gets its own seed.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError("labels length does not match the matrix")
    folds = stratified_folds(y, k, seed)
    fold_seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]

    oof = np.full(len(y), np.nan)
    accs: list[float] = []
    aucs: list[float] = []
    for fold, test_idx in enumerate(folds):
        mask = np.ones(len(y), dtype=bool)
        mask[test_idx] = False
        proba = np.asarray(
            fit_predict(X[mask], y[mask], X[test_idx], fold_seeds[fold]), dtype=float
        )
        oof[test_idx] = proba
        accs.append(accuracy(y[test_idx], (proba >= 0.5).astype(y.dtype)))
        aucs.append(auc(roc_curve(proba, y[test_idx])))
    mean = float(np.mean(accs))
    std = float(np.sqrt(np.mean((np.asarray(accs) - mean) ** 2)))
    return CvReport(k, seed, accs, aucs, mean, std), oof


def classifier_fit_predict(spec: classify.ClassifierSpec):
    """cross_val_proba's fit_predict for a spec: refit per fold with the fold's seed."""

    def fit_predict(train_X, train_y, test_X, fold_seed):
        model = classify.fit_classifier(replace(spec, seed=fold_seed), train_X, train_y)
        return classify.predict_proba(model, test_X)

    return fit_predict


def kfold_cv(
    X: np.ndarray,
    y: Sequence[int],
    spec,
    k: int = 7,
    seed: int = 0,
) -> CvReport:
    """Stratified k-fold CV of a classifier spec.

    Each fold trains a fresh model with a fold-specific seed and scores the
    held-out rows; accuracy thresholds the probability at 0.5.
    """
    report, _ = cross_val_proba(X, y, classifier_fit_predict(spec), k=k, seed=seed)
    return report


def write_cv_report(report: CvReport, path: str | Path) -> None:
    keys = ("k", "seed", "fold_accuracy", "mean", "std", "fold_auc")  # the file's key order
    write_json(path, {key: getattr(report, key) for key in keys})
