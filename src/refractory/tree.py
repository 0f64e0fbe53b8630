"""Binary CART trees: exhaustive midpoint splits, entropy or variance.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each feature, or the lower value where the midpoint rounds up to
the upper one. The best split maximizes impurity decrease; exact
ties go to the lowest feature index, then the lowest threshold, so tree
construction is fully deterministic. Impure nodes may split at zero gain,
which is what lets depth-2 trees carve XOR-style interactions whose
single-feature marginals are uninformative.

fit_tree searches every such threshold, one node at a time in
breadth-first order, from each feature sorted once per fit: a child's
sorted rows are its parent's, filtered stably (as in SLIQ). GBDT's stage
trees come from fit_binned_tree instead, which scores the boundaries of
features binned once per boosting fit by bin_features from per-level
histograms of gradient sums.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

ENTROPY = "entropy"
VARIANCE = "variance"

_TINY = 1e-12
# Bins per feature for fit_binned_tree. 32 lost GBDT accuracy on the paper's
# cohorts; 128 gained none and ran slower. At most 256, as codes are uint8.
_MAX_BINS = 64
_HESSIAN_FLOOR = 1e-12  # damps the Newton step of a node with vanishing curvature
_sum = np.add.reduce  # what ndarray.sum runs, without its Python wrappers


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
    # x log2(x) is 0 at x = 0, where log2 is taken of 1 instead.
    return -p * np.log2(np.where(p > 0, p, 1.0)) - q * np.log2(np.where(q > 0, q, 1.0))


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    criterion: str = ENTROPY,
    max_depth: int = 5,
    sample_weight: np.ndarray | None = None,
    leaf_value: Callable[[np.ndarray], float] | None = None,
) -> TreeNode:
    """Grow a tree on (X, y), one node at a time in breadth-first order.

    y is binary {0, 1} for the entropy criterion and real-valued for the
    variance criterion. leaf_value, when given, receives the ascending row
    indices of each node, nodes in breadth-first order, and overrides the
    default leaf statistic (weighted positive fraction for entropy, weighted
    mean for variance). A node stays a leaf at max_depth, below two rows, at
    impurity at most _TINY, or when no boundary between distinct values
    leaves positive weight on both sides.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) and y must be (n,)")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    if criterion not in (ENTROPY, VARIANCE):
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == ENTROPY and not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("entropy targets must be 0 or 1")
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    if w.shape != y.shape or not np.isfinite(w).all() or (w < 0).any() or w.sum() <= 0:
        raise ValueError("sample_weight must be finite and non-negative with positive total")

    wy = w * y
    # The prefix sums that score a split: weight, weighted target and, for
    # the variance criterion, weighted squared target.
    stats = np.stack((w, wy) if criterion == ENTROPY else (w, wy, wy * y))
    positive = None if (w > 0).all() else w > 0
    Xt = np.ascontiguousarray(X.T)
    # Each feature's rows by (value, row index). The default sort is not
    # stable and is much faster, so only features with ties sort again.
    order = np.argsort(Xt, axis=1)
    sorted_x = np.take(Xt, order + np.arange(0, Xt.size, len(y))[:, None])
    tied = (sorted_x[:, 1:] == sorted_x[:, :-1]).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(Xt[tied], axis=1, kind="stable")
    # Each entry is (parent, side, rows in row order, sorted rows or None
    # for a node that cannot split, depth).
    queue = deque([(None, "", np.arange(len(y)), order, 0)])
    root = None
    while queue:
        up, side, rows, order, depth = queue.popleft()
        # A node's sums run over its own rows in row order.
        total = float(_sum(w[rows]))
        mean = float(_sum(wy[rows])) / total
        value = mean if leaf_value is None else leaf_value(rows)
        node = TreeNode(value=value, n_samples=len(rows), weight=total)
        if up is None:
            root = node
        else:
            setattr(up, side, node)
        if order is None or depth == max_depth:
            continue
        if criterion == ENTROPY:
            impurity = _entropy_of(mean)
        else:
            impurity = _sum(w[rows] * (y[rows] - mean) ** 2) / total
        if impurity <= _TINY:
            continue
        found = _best_split(Xt, stats, positive, order, total, impurity, criterion)
        if found is None:
            continue
        node.feature, node.threshold, gain = found
        node.gain = gain * total  # impurity decrease weighted by node mass
        goes = Xt[node.feature] <= node.threshold
        for side, sent in (("left", goes), ("right", ~goes)):
            child = rows[sent[rows]]
            may_split = depth + 1 < max_depth and len(child) >= 2
            child_order = order[sent[order]].reshape(len(Xt), -1) if may_split else None
            queue.append((node, side, child, child_order, depth + 1))
    return root


def _best_split(
    Xt: np.ndarray,
    stats: np.ndarray,
    positive: np.ndarray | None,
    order: np.ndarray,
    total: float,
    impurity: float,
    criterion: str,
) -> tuple[int, float, float] | None:
    """Score every boundary between distinct values of one node.

    order is (features, node rows), each feature's rows in (value, row)
    order, and column j means "split after j". Returns (feature, midpoint
    threshold, mean impurity decrease), or None when no boundary is valid.
    """
    sv = np.take(Xt, order + np.arange(0, Xt.size, Xt.shape[1])[:, None])
    cum = np.cumsum(np.take(stats, order, axis=1), axis=2)
    wl, yl = cum[0], cum[1]
    wr, yr = total - wl, yl[:, -1:] - yl
    safe_wl, safe_wr = np.maximum(wl, _TINY), np.maximum(wr, _TINY)
    if criterion == ENTROPY:
        child = (wl * _entropy_of(yl / safe_wl) + wr * _entropy_of(yr / safe_wr)) / total
    else:
        y2l, y2r = cum[2], cum[2, :, -1:] - cum[2]
        child = ((y2l - yl * yl / safe_wl) + (y2r - yr * yr / safe_wr)) / total

    valid = np.zeros(order.shape, dtype=bool)
    np.greater(sv[:, 1:], sv[:, :-1], out=valid[:, :-1])
    if positive is not None:
        # Both sides must keep positive weight. Row counts are exact, where a
        # weight sum can absorb a tiny weight.
        left = np.cumsum(positive[order], axis=1)
        valid &= (left > 0) & (left < left[:, -1:])
    gains = np.where(valid, np.maximum(impurity - child, 0.0), -np.inf)

    found = _near_best(gains[None])
    if found is None:
        return None
    f, pos = int(found[1][0]), int(found[2][0])
    return f, float(_midpoint(sv[f, pos], sv[f, pos + 1])), float(gains[f, pos])


def _near_best(score: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(nodes with a finite best, feature, boundary) of a (nodes, features,
    boundaries) score array, or None. NaN scores as -inf. Near-ties (within
    _TINY) snap together; the first hit is the lowest feature, then the
    lowest boundary."""
    flat = score.reshape(len(score), -1)
    best = np.fmax.reduce(flat, axis=1, initial=-np.inf)  # -inf also when there are no features
    nodes = (best > -np.inf).nonzero()[0]
    if nodes.size == 0:
        return None
    # A node's first cell within _TINY of its best lies in the lowest feature
    # whose own best is within _TINY of it.
    feature = (flat >= (best - _TINY)[:, None]).argmax(axis=1)[nodes] // score.shape[2]
    line = score[nodes, feature]
    at = (line >= (np.fmax.reduce(line, axis=1) - _TINY)[:, None]).argmax(axis=1)
    return nodes, feature, at


def _midpoint(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Thresholds between values lo < hi: the midpoint, or lo where the
    midpoint of adjacent floats rounds up to hi."""
    mid = (lo + hi) / 2.0
    return np.where(mid == hi, lo, mid)


def bin_features(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Code every feature of X into at most _MAX_BINS bins.

    Returns codes, uint8 of shape (d, n), and each feature's strictly
    increasing thresholds t, with X[i, f] <= t[b] exactly when
    codes[f, i] <= b. A feature with at most _MAX_BINS distinct values gets
    every boundary between them, placed by fit_tree's midpoint rule, so
    binning loses no split. Otherwise boundary k sits after the first value
    with at least k n / _MAX_BINS rows at or below it, for k = 1 .. 63,
    with repeats and the boundary past the largest value dropped.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    codes = np.empty((d, n), dtype=np.uint8)
    thresholds = []
    for f in range(d):
        values, counts = np.unique(X[:, f], return_counts=True)
        after = np.arange(len(values) - 1)  # boundary j lies between values j and j + 1
        if len(values) > _MAX_BINS:
            at_or_below = np.cumsum(counts) * _MAX_BINS  # integers: no rounding at the quantiles
            after = np.unique(np.searchsorted(at_or_below, np.arange(1, _MAX_BINS) * n))
            after = after[after < len(values) - 1]
        t = _midpoint(values[after], values[after + 1])
        codes[f] = np.searchsorted(t, X[:, f])
        thresholds.append(t)
    return codes, thresholds


def fit_binned_tree(
    codes: np.ndarray,
    thresholds: list[np.ndarray],
    r: np.ndarray,
    h: np.ndarray,
    *,
    max_depth: int,
) -> tuple[TreeNode, np.ndarray]:
    """Grow a regression tree on r over binned features, one level at a time.

    codes and thresholds come from bin_features; r is the gradient and h the
    hessian per row. Each level takes one histogram of row counts and r over
    (node, feature, bin). Splitting at bin b sends the rows with
    code <= b left and lowers the variance of r by
    (G_L^2/n_L + G_R^2/n_R - G^2/n) / n, clipped at 0, where G sums r. A
    node stays a leaf at max_depth, below two rows, at variance at most
    _TINY, or when no boundary leaves rows on both sides; near-ties (within
    _TINY) go to the lowest feature, then the lowest bin. gain is the
    decrease times n. Every node's value is the damped Newton step
    sum(r) / max(sum(h), _HESSIAN_FLOOR).

    Returns the root and each row's leaf value, which equals
    predict_tree(root, X) on the rows that were binned.
    """
    r = np.asarray(r, dtype=float)
    h = np.asarray(h, dtype=float)
    d, n = codes.shape
    if r.shape != (n,) or h.shape != (n,) or len(thresholds) != d:
        raise ValueError("codes must be (d, n), with d thresholds and r, h of shape (n,)")
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    # The histogram is as wide as the most bins any feature got. Row i's
    # cell for feature f is slot * d * width + f * width + code; cells holds
    # all but the slot term, and r_rep the r each cell adds, both fixed for
    # the call.
    width = max((len(t) for t in thresholds), default=0) + 1
    cells = np.empty((d, n), dtype=np.intp)
    np.add(codes, np.arange(0, d * width, width)[:, None], out=cells)
    r_rep = np.empty((d, n))
    r_rep[:] = r
    at = np.empty_like(cells)  # each level's cells, in one buffer for the call
    leaf = np.empty(n)
    # node holds each row's node on this level, or K, the level's discard
    # slot, for a row whose node stayed a leaf on an earlier level. So every
    # level sums and histograms all n rows in row order, and no level
    # gathers its live rows. parents holds the (node, side) each level's
    # nodes hang from.
    node = np.zeros(n, dtype=np.intp)
    rows = np.arange(n)
    parents: list[tuple[TreeNode, str]] = []
    root = None
    for depth in range(max_depth + 1):
        K = max(len(parents), 1)
        count = np.bincount(node, minlength=K + 1)
        total = np.bincount(node, weights=r, minlength=K + 1)
        value = total / np.maximum(np.bincount(node, weights=h, minlength=K + 1), _HESSIAN_FLOOR)
        nodes = [TreeNode(v, c, float(c)) for v, c in zip(value[:K].tolist(), count[:K].tolist())]
        if root is None:
            root = nodes[0]
        for (up, side), child in zip(parents, nodes):
            setattr(up, side, child)
        # A row's last write is the value of its leaf.
        np.copyto(leaf, value[node], where=node < K)
        if depth == max_depth:
            break

        # Every node has a row; only the discard slot may have none. A node
        # of one row has spread 0, so the spread test also stops below two rows.
        dev = r - (total / np.maximum(count, 1))[node]
        dev *= dev
        spread = np.bincount(node, weights=dev, minlength=K + 1)[:K] / count[:K]
        cand = (spread > _TINY).nonzero()[0]
        if cand.size == 0:
            break
        slot = np.full(K + 1, cand.size)  # the discard block for a row of no candidate
        slot[cand] = np.arange(cand.size)
        np.add(cells, d * width * slot[node], out=at)
        found = _best_bins(at, r_rep, count[cand].astype(float), width)
        if found is None:
            break
        split, feature, bin_, decrease = found
        split = cand[split]
        for k, f, b, g in zip(split.tolist(), feature.tolist(), bin_.tolist(), decrease.tolist()):
            up = nodes[k]
            up.feature, up.threshold, up.gain = f, float(thresholds[f][b]), g * up.n_samples

        # A row of the split node s goes to its left (2 s) or right (2 s + 1)
        # child, by the code of s's feature, found at s's offset into codes;
        # every other row goes to the next level's discard slot.
        to = np.full(K + 1, 2 * split.size)
        to[split] = np.arange(0, 2 * split.size, 2)
        offset = np.zeros(K + 1, dtype=np.intp)
        offset[split] = feature * n
        last = np.full(K + 1, width)  # past every code, for a node that did not split
        last[split] = bin_
        node = to[node] + (codes.ravel()[offset[node] + rows] > last[node])
        parents = [(nodes[k], side) for k in split.tolist() for side in ("left", "right")]
    return root, leaf


def _best_bins(
    at: np.ndarray,
    r_rep: np.ndarray,
    n_node: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The best (feature, bin) of each candidate node, from one histogram.

    at holds the histogram cell of each (feature, row) as fit_binned_tree
    lays them out, with the rows of no candidate in the discard block
    C = len(n_node); r_rep holds the r each cell adds, and n_node each
    candidate's row count. Returns (candidates that split, feature, bin,
    variance decrease), or None when no candidate has a boundary with rows
    on both sides.
    """
    C, d = len(n_node), at.shape[0]
    size = C * d * width
    at = at.ravel()
    # A cell is a complex pair, its row count in the real part and its sum
    # of r in the imaginary part, so one cumsum sums both in place into the
    # rows and r left of each boundary. The last bin's boundary has no rows
    # right of it and is never valid.
    left = np.empty(size, dtype=complex)
    left.real = np.bincount(at, minlength=size + d * width)[:size]
    left.imag = np.bincount(at, weights=r_rep.ravel(), minlength=size + d * width)[:size]
    left = left.reshape(C, d, width)
    left.cumsum(axis=2, out=left)
    n_left, g_left = left.real, left.imag
    g_all, n_all = g_left[:, :, -1:], n_node[:, None, None]
    # score = (g_left^2 / n_left + g_right^2 / n_right - g_all^2 / n_all) / n_all,
    # clipped at 0. A side without rows sums to exactly 0, so a boundary
    # with an empty side scores 0 / 0, NaN, which _near_best passes over.
    with np.errstate(invalid="ignore"):
        score = g_left * g_left
        score /= n_left
        g_right = g_all - g_left
        g_right *= g_right
        g_right /= n_all - n_left
    score += g_right
    score -= g_all**2 / n_all
    score /= n_all
    np.maximum(score, 0.0, out=score)

    found = _near_best(score)
    if found is None:
        return None
    split, feature, bin_ = found
    return split, feature, bin_, score[split, feature, bin_]


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
