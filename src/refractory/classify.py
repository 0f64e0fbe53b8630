"""Binary classifiers: logistic regression, CART, AdaBoost, GBDT, and SVMs.

GBDT is the centerpiece: forward stage-wise fitting of depth-limited
regression trees to the binomial-deviance pseudo-residuals, each leaf taking
a single damped Newton step. Labels are {0, 1} everywhere; predict_proba
returns the positive-class probability (for the margin classifiers this is
the logistic of an uncalibrated margin, and documented as such).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import reduce as reduce_mod
from . import tree as tree_mod
from .errors import ConvergenceError
from .linalg import pairwise_sq_dists
from .tables import write_json

LOGREG = "LOGREG"
TREE = "TREE"
ADABOOST = "ADABOOST"
GBDT = "GBDT"
SVM_LINEAR = "SVM_LINEAR"
SVM_RBF = "SVM_RBF"

CLASSIFIERS = (LOGREG, TREE, ADABOOST, GBDT, SVM_LINEAR, SVM_RBF)

_LEAF_HESSIAN_FLOOR = 1e-12


@dataclass(frozen=True)
class ClassifierSpec:
    """Method choice plus every knob any of the methods reads."""

    method: str = GBDT
    learning_rate: float = 0.25   # GBDT stage shrinkage
    max_depth: int = 5            # TREE and GBDT stage trees
    n_stages: int = 100           # boosting rounds (ADABOOST, GBDT)
    l2: float = 1.0               # LOGREG ridge strength
    max_iter: int = 2000          # LOGREG / SVM iteration cap
    tol: float = 1e-6             # LOGREG gradient-norm stop
    svm_reg: float = 0.01         # SVM regularization strength
    gamma: float | None = None    # SVM_RBF kernel width; None derives from data
    seed: int = 0

    def __post_init__(self):
        if self.method not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.method!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_depth < 0 or self.n_stages < 1 or self.max_iter < 1:
            raise ValueError("max_depth, n_stages and max_iter must be sensible")
        if self.l2 <= 0 or self.svm_reg <= 0:
            raise ValueError("l2 and svm_reg must be positive")


@dataclass
class TrainedClassifier:
    method: str
    spec: ClassifierSpec
    n_features: int
    # LOGREG / SVM_LINEAR
    weights: np.ndarray | None = None
    intercept: float = 0.0
    # TREE
    root: tree_mod.TreeNode | None = None
    # Boosting
    stages: list = field(default_factory=list)
    stage_weights: list[float] = field(default_factory=list)
    base_score: float = 0.0
    deviance_trace: list[float] = field(default_factory=list)
    # SVM_RBF
    train_X: np.ndarray | None = None
    dual_coef: np.ndarray | None = None
    gamma: float | None = None


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def binomial_deviance(y: np.ndarray, score: np.ndarray) -> float:
    """Mean negative log-likelihood of labels under logistic scores."""
    y = np.asarray(y, dtype=float)
    score = np.asarray(score, dtype=float)
    return float(np.mean(np.logaddexp(0.0, score) - y * score))


def pseudo_residuals(y: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Negative gradient of the mean binomial deviance, per sample: y - p."""
    return np.asarray(y, dtype=float) - sigmoid(np.asarray(score, dtype=float))


def _validate_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with matching y of shape (n,)")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    y = y.astype(float)
    if y.min() == y.max():
        raise ValueError("training data must contain both classes")
    return X, y


def fit_classifier(spec: ClassifierSpec, X, y) -> TrainedClassifier:
    X, y = _validate_xy(X, y)
    if spec.method == LOGREG:
        return _fit_logreg(spec, X, y)
    if spec.method == TREE:
        root = tree_mod.fit_tree(X, y, criterion=tree_mod.ENTROPY, max_depth=spec.max_depth)
        return TrainedClassifier(TREE, spec, X.shape[1], root=root)
    if spec.method == ADABOOST:
        return _fit_adaboost(spec, X, y)
    if spec.method == GBDT:
        return gbdt_fit(spec, X, y)
    if spec.method == SVM_LINEAR:
        # The linear Gram X X^T is applied as two products and never formed.
        beta, b = _pegasos(spec, lambda v: X @ (X.T @ v), y)
        return TrainedClassifier(SVM_LINEAR, spec, X.shape[1], weights=X.T @ beta, intercept=b)
    return _fit_svm_rbf(spec, X, y)


def predict_proba(model: TrainedClassifier, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (n, {model.n_features}) input, got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    if model.method in (LOGREG, SVM_LINEAR):
        return sigmoid(X @ model.weights + model.intercept)  # SVM_LINEAR: uncalibrated margin
    if model.method == TREE:
        return tree_mod.predict_tree(model.root, X)
    if model.method == ADABOOST:
        margin = np.zeros(X.shape[0])
        for alpha, root in zip(model.stage_weights, model.stages):
            margin += alpha * np.where(tree_mod.predict_tree(root, X) >= 0.5, 1.0, -1.0)
        return sigmoid(margin)  # uncalibrated vote margin through the logistic link
    if model.method == GBDT:
        return sigmoid(decision_score(model, X))
    K = np.exp(-model.gamma * pairwise_sq_dists(X, model.train_X))
    return sigmoid(K @ model.dual_coef + model.intercept)  # uncalibrated margin


def predict(model: TrainedClassifier, X) -> np.ndarray:
    return (predict_proba(model, X) >= 0.5).astype(np.int64)


def decision_score(model: TrainedClassifier, X) -> np.ndarray:
    """Additive raw score of a GBDT model (log-odds scale)."""
    if model.method != GBDT:
        raise ValueError("decision_score is defined for GBDT models")
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    score = np.full(X.shape[0], model.base_score)
    for root in model.stages:
        score += model.spec.learning_rate * tree_mod.predict_tree(root, X)
    return score


# ---------------------------------------------------------------------------
# Logistic regression


def _fit_logreg(spec: ClassifierSpec, X: np.ndarray, y: np.ndarray) -> TrainedClassifier:
    """Ridge-penalized MLE by Newton's method (IRLS) on theta = (w, b).

    The intercept b is not penalized. Each step solves the (d+1)-square
    Hessian system [X, 1]^T diag(p(1-p)) [X, 1] / n + l2 on the weight
    diagonal, which l2 > 0 keeps positive definite. Returns once the full
    gradient norm is at most spec.tol; raises ConvergenceError when max_iter
    steps pass or the solve fails.
    """
    n, d = X.shape
    w, b = np.zeros(d), 0.0
    # Refilled in place each step: the rows of [X, 1] times sqrt(p(1-p)/n), and the Hessian.
    scaled, hessian = np.empty((n, d + 1)), np.empty((d + 1, d + 1))
    diag = np.arange(d)
    for iteration in range(spec.max_iter):
        p = sigmoid(X @ w + b)
        grad = np.append(X.T @ (p - y) / n + spec.l2 * w, np.mean(p - y))
        if np.linalg.norm(grad) <= spec.tol:
            return TrainedClassifier(LOGREG, spec, d, weights=w, intercept=b)
        root = np.sqrt(p * (1.0 - p) / n)
        np.multiply(X, root[:, None], out=scaled[:, :d])
        scaled[:, d] = root
        np.matmul(scaled.T, scaled, out=hessian)
        hessian[diag, diag] += spec.l2
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LOGREG Newton step failed: {exc}", iterations=iteration) from exc
        w = w - step[:d]
        b -= float(step[d])
    raise ConvergenceError(f"LOGREG did not converge within {spec.max_iter} iterations", iterations=spec.max_iter)


# ---------------------------------------------------------------------------
# AdaBoost on stumps


def _fit_adaboost(spec: ClassifierSpec, X: np.ndarray, y: np.ndarray) -> TrainedClassifier:
    """Discrete AdaBoost with depth-1 trees; stops early once a stump is no
    better than chance (weighted error >= 0.5) or perfect (error 0)."""
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    y_signed = 2.0 * y - 1.0
    model = TrainedClassifier(ADABOOST, spec, X.shape[1])
    for _ in range(spec.n_stages):
        stump = tree_mod.fit_tree(
            X, y, criterion=tree_mod.ENTROPY, max_depth=1, sample_weight=w
        )
        pred = np.where(tree_mod.predict_tree(stump, X) >= 0.5, 1.0, -1.0)
        err = float(w[pred != y_signed].sum() / w.sum())
        if err >= 0.5:
            break
        if err <= 0.0:
            model.stages.append(stump)
            model.stage_weights.append(0.5 * np.log((1.0 - 1e-12) / 1e-12))
            break
        alpha = 0.5 * np.log((1.0 - err) / err)
        model.stages.append(stump)
        model.stage_weights.append(float(alpha))
        w = w * np.exp(-alpha * y_signed * pred)
        w /= w.sum()
    return model


# ---------------------------------------------------------------------------
# Gradient boosted trees


def gbdt_fit(spec: ClassifierSpec, X, y) -> TrainedClassifier:
    """Stage-wise GBDT on the binomial deviance.

    Stage m fits a variance-reduction regression tree to the current
    pseudo-residuals y - p, replaces each leaf value with the damped Newton
    step sum(r) / max(sum(p(1-p)), floor) over its members, and adds
    learning_rate times the tree to the score. The mean training deviance
    after every stage lands in deviance_trace.
    """
    X, y = _validate_xy(X, y)
    p_bar = float(y.mean())
    base = float(np.log(p_bar / (1.0 - p_bar)))
    score = np.full(X.shape[0], base)
    model = TrainedClassifier(GBDT, spec, X.shape[1], base_score=base)

    for _ in range(spec.n_stages):
        p = sigmoid(score)
        residual = y - p
        hessian = p * (1.0 - p)

        def newton_leaf(idx: np.ndarray) -> float:
            return float(residual[idx].sum() / max(hessian[idx].sum(), _LEAF_HESSIAN_FLOOR))

        root = tree_mod.fit_tree(
            X,
            residual,
            criterion=tree_mod.VARIANCE,
            max_depth=spec.max_depth,
            leaf_value=newton_leaf,
        )
        score = score + spec.learning_rate * tree_mod.predict_tree(root, X)
        model.stages.append(root)
        model.deviance_trace.append(binomial_deviance(y, score))
    return model


# ---------------------------------------------------------------------------
# SVMs by deterministic full-batch subgradient descent


def _pegasos(
    spec: ClassifierSpec, gram_times: Callable[[np.ndarray], np.ndarray], y: np.ndarray
) -> tuple[np.ndarray, float]:
    """Hinge + L2 on dual weights beta over the training rows, where the
    decision values are K beta + b and gram_times(v) returns K v.

    Pegasos' eta = 1 / (svm_reg * t) step: the regularizer shrinks beta and
    each margin violator adds eta * y_i / n to its own weight. The objective
    is evaluated at all max_iter + 1 iterates, and the best one is returned.
    """
    n = y.shape[0]
    y_signed = 2.0 * y - 1.0
    beta = np.zeros(n)
    b = 0.0
    best: tuple[float, np.ndarray, float] | None = None
    for t in range(1, spec.max_iter + 2):
        k_beta = gram_times(beta)
        margin = y_signed * (k_beta + b)
        objective = 0.5 * spec.svm_reg * float(beta @ k_beta) + float(
            np.mean(np.maximum(0.0, 1.0 - margin))
        )
        if best is None or objective < best[0]:
            best = (objective, beta, b)
        if t > spec.max_iter:
            break
        viol = margin < 1.0
        eta = 1.0 / (spec.svm_reg * t)
        beta = (1.0 - eta * spec.svm_reg) * beta  # a new array: best keeps its own
        beta[viol] += eta * y_signed[viol] / n
        b = b + eta * float(y_signed[viol].sum()) / n
    return best[1], best[2]


def _fit_svm_rbf(spec: ClassifierSpec, X: np.ndarray, y: np.ndarray) -> TrainedClassifier:
    """The shared loop on the dense RBF Gram of the training rows."""
    gamma = spec.gamma if spec.gamma is not None else reduce_mod.default_gamma(X)
    K = np.exp(-gamma * pairwise_sq_dists(X))
    beta, b = _pegasos(spec, lambda v: K @ v, y)
    return TrainedClassifier(
        SVM_RBF, spec, X.shape[1], train_X=X.copy(), dual_coef=beta, intercept=b, gamma=gamma
    )


# ---------------------------------------------------------------------------
# Feature importance and the model summary artifact


@dataclass(frozen=True)
class FeatureImportance:
    """Per-feature impurity-decrease mass; sums to 1, or all zero when the
    model never split."""

    weights: np.ndarray


def feature_importance(model: TrainedClassifier) -> FeatureImportance:
    if model.method == TREE:
        roots = [model.root]
    elif model.method in (ADABOOST, GBDT):
        roots = model.stages
    else:
        raise ValueError(f"feature importance is undefined for {model.method}")
    out = np.zeros(model.n_features)
    for root in roots:
        tree_mod.accumulate_importance(root, out, root.weight)
    total = out.sum()
    if total > 0.0:
        out = out / total
    return FeatureImportance(out)


def model_summary(model: TrainedClassifier, feature_names: Sequence[str] | None = None) -> dict:
    """JSON-ready description: method, hyperparameters, fitted sizes, the
    GBDT deviance trace, and importances when the method defines them."""
    spec = model.spec
    summary = {
        "method": model.method,
        "hyperparameters": {
            "learning_rate": spec.learning_rate,
            "max_depth": spec.max_depth,
            "n_stages": spec.n_stages,
            "l2": spec.l2,
            "max_iter": spec.max_iter,
            "svm_reg": spec.svm_reg,
            "gamma": spec.gamma if spec.gamma is not None else model.gamma,
            "seed": spec.seed,
        },
        "n_features": model.n_features,
        "n_stages_fit": len(model.stages) if model.method in (ADABOOST, GBDT) else None,
        "base_score": model.base_score if model.method == GBDT else None,
        "deviance_trace": list(model.deviance_trace) if model.method == GBDT else None,
    }
    if model.method in (TREE, ADABOOST, GBDT):
        weights = feature_importance(model).weights
        names = (
            list(feature_names)
            if feature_names is not None
            else [f"f{i}" for i in range(model.n_features)]
        )
        if len(names) != model.n_features:
            raise ValueError("feature_names length does not match the model")
        summary["feature_importance"] = {name: float(v) for name, v in zip(names, weights)}
    else:
        summary["feature_importance"] = None
    return summary


def write_model_summary(summary: dict, path: str | Path) -> None:
    write_json(path, summary)
