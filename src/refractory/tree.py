"""Binary CART trees: exhaustive midpoint splits, entropy or variance.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each feature. The best split maximizes impurity decrease; exact
ties go to the lowest feature index, then the lowest threshold, so tree
construction is fully deterministic. Impure nodes may split at zero gain,
which is what lets depth-2 trees carve XOR-style interactions whose
single-feature marginals are uninformative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

ENTROPY = "entropy"
VARIANCE = "variance"

_TINY = 1e-12


@dataclass
class TreeNode:
    value: float
    n_samples: int
    weight: float
    feature: int | None = None
    threshold: float | None = None
    gain: float | None = None  # weighted impurity decrease at this split
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _entropy_of(p: np.ndarray | float) -> np.ndarray | float:
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0) - np.where(
            q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0
        )
    return h


def _best_split(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, criterion: str
) -> tuple[int, float, float] | None:
    """Return (feature, threshold, mean impurity decrease), or None when the
    node is pure (impurity at most _TINY) or no feature has two distinct values.

    All features are scanned at once: sort every column, prefix-sum weights
    and weighted targets, and score each between-distinct-values boundary.
    Row i of the boundary arrays means "split after sorted row i".
    """
    n = X.shape[0]
    if n < 2:
        return None
    total_w = w.sum()
    if criterion == ENTROPY:
        parent = float(_entropy_of((w * y).sum() / total_w))
    else:
        mean = (w * y).sum() / total_w
        parent = float((w * (y - mean) ** 2).sum() / total_w)
    if parent <= _TINY:
        return None

    order = np.argsort(X, axis=0, kind="stable")
    sv = np.take_along_axis(X, order, axis=0)
    sy = y[order]
    sw = w[order]
    valid = sv[1:] > sv[:-1]
    if not valid.any():
        return None
    cwy = np.cumsum(sw * sy, axis=0)
    wl = np.cumsum(sw, axis=0)[:-1]
    wr = total_w - wl
    yl = cwy[:-1]
    yr = cwy[-1] - yl
    safe_wl = np.maximum(wl, _TINY)
    safe_wr = np.maximum(wr, _TINY)

    if criterion == ENTROPY:
        child = (wl * _entropy_of(yl / safe_wl) + wr * _entropy_of(yr / safe_wr)) / total_w
    else:
        cwy2 = np.cumsum(sw * sy * sy, axis=0)
        y2l = cwy2[:-1]
        y2r = cwy2[-1] - y2l
        sse_l = y2l - yl * yl / safe_wl
        sse_r = y2r - yr * yr / safe_wr
        child = (sse_l + sse_r) / total_w
    gains = np.where(valid, np.maximum(parent - child, 0.0), -np.inf)

    col_best = gains.max(axis=0)
    best_gain = float(col_best.max())
    if not np.isfinite(best_gain):
        return None
    # Near-ties (within _TINY) snap together; argmax then takes the lowest
    # feature index and, within that column, the lowest threshold.
    feature = int(np.argmax(col_best >= best_gain - _TINY))
    pos = int(np.argmax(gains[:, feature] >= col_best[feature] - _TINY))
    threshold = float((sv[pos, feature] + sv[pos + 1, feature]) / 2.0)
    return feature, threshold, float(gains[pos, feature])


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    criterion: str = ENTROPY,
    max_depth: int = 5,
    sample_weight: np.ndarray | None = None,
    leaf_value: Callable[[np.ndarray], float] | None = None,
) -> TreeNode:
    """Grow a tree on (X, y).

    y is binary {0, 1} for the entropy criterion and real-valued for the
    variance criterion. leaf_value, when given, receives the row indices of
    each leaf and overrides the default leaf statistic (weighted positive
    fraction for entropy, weighted mean for variance).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) and y must be (n,)")
    if criterion not in (ENTROPY, VARIANCE):
        raise ValueError(f"unknown criterion {criterion!r}")
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    if w.shape != y.shape or (w < 0).any() or w.sum() <= 0:
        raise ValueError("sample_weight must be non-negative with positive total")

    indices = np.arange(len(y))

    def default_value(idx: np.ndarray) -> float:
        wi = w[idx]
        return float((wi * y[idx]).sum() / wi.sum())

    value_fn = leaf_value or default_value

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(
            value=value_fn(idx), n_samples=int(idx.size), weight=float(w[idx].sum())
        )
        if depth >= max_depth:
            return node
        found = _best_split(X[idx], y[idx], w[idx], criterion)
        if found is None:
            return node
        feature, threshold, gain = found
        go_left = X[idx, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.gain = gain * node.weight  # impurity decrease weighted by node mass
        node.left = build(idx[go_left], depth + 1)
        node.right = build(idx[~go_left], depth + 1)
        return node

    return build(indices, 0)


def predict_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Leaf values for each row, routed by threshold comparisons."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.value
            continue
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def tree_depth(root: TreeNode) -> int:
    if root.is_leaf:
        return 0
    return 1 + max(tree_depth(root.left), tree_depth(root.right))


def accumulate_importance(root: TreeNode, out: np.ndarray, total_weight: float) -> None:
    """Add each split's impurity decrease, scaled by node mass fraction."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        out[node.feature] += node.gain / total_weight
        stack.append(node.left)
        stack.append(node.right)
