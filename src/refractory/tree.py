"""Binary CART trees: exhaustive midpoint splits, entropy or variance.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each feature, or the lower value where the midpoint rounds up to
the upper one. The best split maximizes impurity decrease; exact
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
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0) - np.where(
            q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0
        )
    return h


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    criterion: str = ENTROPY,
    max_depth: int = 5,
    sample_weight: np.ndarray | None = None,
    leaf_value: Callable[[np.ndarray], float] | None = None,
) -> TreeNode:
    """Grow a tree on (X, y), one depth level at a time.

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
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    if w.shape != y.shape or not np.isfinite(w).all() or (w < 0).any() or w.sum() <= 0:
        raise ValueError("sample_weight must be finite and non-negative with positive total")

    wy = w * y
    # The prefix sums that score a split: weighted target and, for the
    # variance criterion, weighted squared target. Weight sums come too,
    # unless every weight is 1: then they are exact row counts.
    targets = (wy,) if criterion == ENTROPY else (wy, wy * y)
    weights = None if (w == 1.0).all() else w
    positive = None if (w > 0).all() else w > 0
    Xt = np.ascontiguousarray(X.T)
    # Each feature's rows by (value, row index); every later level regroups
    # the previous level's candidate rows by node. The default sort is not
    # stable and is much faster, so only features with ties sort again.
    grouped = np.argsort(Xt, axis=1)
    sorted_x = np.take(Xt, grouped + (np.arange(len(Xt)) * len(y))[:, None])
    tied = (sorted_x[:, 1:] == sorted_x[:, :-1]).any(axis=1)
    if tied.any():
        grouped[tied] = np.argsort(Xt[tied], axis=1, kind="stable")
    # This level's nodes own consecutive blocks of part, each in row order;
    # parents holds the (node, side) each of them hangs from.
    part = np.arange(len(y))
    counts = np.array([len(y)])
    parents: list[tuple[TreeNode, str]] = []
    root = None
    for depth in range(max_depth + 1):
        ends = np.cumsum(counts)
        blocks = list(zip((ends - counts).tolist(), ends.tolist()))
        # Each node's sums run over its own rows in row order, so they round
        # exactly as a lone node's would.
        w_part, wy_part = w[part], wy[part]
        totals = np.array([_sum(w_part[s:e]) for s, e in blocks])
        means = np.array([_sum(wy_part[s:e]) for s, e in blocks]) / totals
        if leaf_value is None:
            values = means.tolist()
        else:
            values = [leaf_value(part[s:e]) for s, e in blocks]
        nodes = [
            TreeNode(value=v, n_samples=c, weight=t)
            for v, c, t in zip(values, counts.tolist(), totals.tolist())
        ]
        if root is None:
            root = nodes[0]
        for (up, side), node in zip(parents, nodes):
            setattr(up, side, node)
        if depth == max_depth:
            break

        cand = np.flatnonzero(counts >= 2)
        if criterion == ENTROPY:
            impurity = _entropy_of(means[cand])
        else:
            sq = w_part * (y[part] - np.repeat(means, counts)) ** 2
            impurity = np.array([_sum(sq[blocks[k][0] : blocks[k][1]]) for k in cand.tolist()])
            impurity /= totals[cand]
        keep = impurity > _TINY
        cand, impurity = cand[keep], impurity[keep]
        if cand.size == 0:
            break
        if depth > 0:
            grouped = _regroup(grouped, len(y), part, counts, cand)
        found = _best_splits(
            Xt, weights, targets, positive, grouped, counts[cand], totals[cand], impurity, criterion
        )
        if found is None:
            break
        split, feature, threshold, gain = found
        split = cand[split]
        for k, f, t, g in zip(split.tolist(), feature.tolist(), threshold.tolist(), gain.tolist()):
            node = nodes[k]
            node.feature, node.threshold = f, t
            node.gain = g * node.weight  # impurity decrease weighted by node mass
        part, counts = _partition(Xt, part, counts, split, feature, threshold)
        parents = [(nodes[k], side) for k in split.tolist() for side in ("left", "right")]
    return root


def _regroup(
    grouped: np.ndarray, n: int, part: np.ndarray, counts: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """Each feature's rows of the candidate nodes, one block per candidate.

    grouped holds the previous level's candidate rows in (node, value, row)
    order; a stable sort by the new node id keeps (value, row) within a node,
    and rows outside the candidates sort last and are cut off.
    """
    C = cand.size
    node_id = np.full(len(counts), C, dtype=np.min_scalar_type(C))
    node_id[cand] = np.arange(C)
    row_id = np.full(n, C, dtype=node_id.dtype)
    row_id[part] = np.repeat(node_id, counts)
    order = np.argsort(np.take(row_id, grouped), axis=1, kind="stable")[:, : counts[cand].sum()]
    order += (np.arange(len(grouped)) * grouped.shape[1])[:, None]
    return np.take(grouped, order)


def _best_splits(
    Xt: np.ndarray,
    weights: np.ndarray | None,
    targets: tuple[np.ndarray, ...],
    positive: np.ndarray | None,
    grouped: np.ndarray,
    lens: np.ndarray,
    totals: np.ndarray,
    impurity: np.ndarray,
    criterion: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Score every boundary of every candidate node in one set of flat arrays.

    grouped is (features, rows): candidate k owns one block of lens[k]
    columns in (value, row) order, and column j means "split after j".
    Returns (candidates that split, feature, midpoint threshold, mean impurity
    decrease), or None when no candidate has a valid boundary.
    """
    d, m = grouped.shape
    starts = np.cumsum(lens) - lens
    ends = starts + lens
    cols = np.arange(m)
    sv = np.take(Xt, grouped + (np.arange(d) * Xt.shape[1])[:, None])
    stats = targets if weights is None else (weights, *targets)
    cum = np.empty((len(stats), d, m))
    for a, out in zip(stats, cum):
        np.take(a, grouped, out=out, mode="clip")  # in range; "raise" would buffer out
    # One cumsum per node: a running sum across nodes would round differently.
    for s, e in zip(starts.tolist(), ends.tolist()):
        np.cumsum(cum[:, :, s:e], axis=2, out=cum[:, :, s:e])
    if weights is None:
        wl = (cols - np.repeat(starts - 1, lens)).astype(float)
    else:
        wl = cum[0]
    ycum = cum[len(stats) - len(targets) :]
    node_end = np.repeat(ycum[:, :, ends - 1], lens, axis=2)
    tw = np.repeat(totals, lens)
    wr = tw - wl
    yl = ycum[0]
    yr = node_end[0] - yl
    safe_wl = np.maximum(wl, _TINY)
    safe_wr = np.maximum(wr, _TINY)
    if criterion == ENTROPY:
        child = (wl * _entropy_of(yl / safe_wl) + wr * _entropy_of(yr / safe_wr)) / tw
    else:
        y2l = ycum[1]
        y2r = node_end[1] - y2l
        sse_l = y2l - yl * yl / safe_wl
        sse_r = y2r - yr * yr / safe_wr
        child = (sse_l + sse_r) / tw

    valid = np.zeros((d, m), dtype=bool)
    np.greater(sv[:, 1:], sv[:, :-1], out=valid[:, :-1])
    valid[:, ends - 1] = False
    if positive is not None:
        # Both sides must keep positive weight. Row counts are exact, where a
        # weight sum can absorb a tiny weight.
        seen = np.zeros((d, m + 1), dtype=np.int64)
        np.cumsum(np.take(positive, grouped), axis=1, out=seen[:, 1:])
        left = seen[:, 1:]
        valid &= left > np.repeat(seen[:, starts], lens, axis=1)
        valid &= left < np.repeat(seen[:, ends], lens, axis=1)
    gains = np.where(valid, np.maximum(np.repeat(impurity, lens) - child, 0.0), -np.inf)

    col_best = np.maximum.reduceat(gains, starts, axis=1)
    best = col_best.max(axis=0, initial=-np.inf)  # -inf also when X has no columns
    split = np.flatnonzero(np.isfinite(best))
    if split.size == 0:
        return None
    # Near-ties (within _TINY) snap together; the first hit is then the
    # lowest feature index and, within that feature, the lowest threshold.
    feature = np.argmax(col_best >= best - _TINY, axis=0)
    cut = np.repeat(col_best[feature, np.arange(len(lens))] - _TINY, lens)
    hit = np.take(gains, np.repeat(feature, lens) * m + cols) >= cut
    pos = np.minimum.reduceat(np.where(hit, cols, m), starts)
    at = (feature * m + pos)[split]
    lo, hi = np.take(sv, at), np.take(sv, at + 1)
    mid = (lo + hi) / 2.0
    threshold = np.where(mid == hi, lo, mid)  # adjacent floats: the midpoint rounds to hi
    return split, feature[split], threshold, np.take(gains, at)


def _partition(
    Xt: np.ndarray,
    part: np.ndarray,
    counts: np.ndarray,
    split: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The next level's rows and block sizes: each split node's rows with
    X[row, feature] <= threshold, then the others, each block in row order."""
    S = split.size
    child = np.full(len(counts), 2 * S, dtype=np.min_scalar_type(2 * S))
    child[split] = 2 * np.arange(S)
    f = np.zeros(len(counts), dtype=np.intp)
    f[split] = feature
    t = np.full(len(counts), np.inf)
    t[split] = threshold
    go_left = np.take(Xt, np.repeat(f, counts) * Xt.shape[1] + part) <= np.repeat(t, counts)
    child = np.repeat(child, counts) + ~go_left
    order = np.argsort(child, kind="stable")
    counts = np.bincount(child, minlength=2 * S)[: 2 * S]
    return part[order[: counts.sum()]], counts


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
