"""CART regression trees and without-replacement random forest ensembles.

Trees are grown greedily: at each node a random subset of features is
considered, and the (feature, midpoint-threshold) pair minimizing the
count-weighted sum of child response variances is taken, provided it strictly
improves on the parent. The left branch takes x <= threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _util
from .data import Dataset

LEAF_SUMMARIES = ("mean", "median")


@dataclass(frozen=True)
class ForestConfig:
    """Hyper-parameters of a forest: per-tree sample size, split candidates,
    depth cap, ensemble size, leaf occupancy floor, leaf statistic, and seed.
    """

    subsample_size: int
    features_per_split: int
    max_depth: int
    n_trees: int
    min_leaf: int = 1
    leaf_summary: str = "mean"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.subsample_size < 1:
            raise ValueError(f"subsample_size must be >= 1, got {self.subsample_size}")
        if self.features_per_split < 1:
            raise ValueError(
                f"features_per_split must be >= 1, got {self.features_per_split}"
            )
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.leaf_summary not in LEAF_SUMMARIES:
            raise ValueError(
                f"leaf_summary must be one of {LEAF_SUMMARIES}, got {self.leaf_summary!r}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit an unsigned 64-bit int, got {self.seed}")

    def validate_against(self, dataset: Dataset) -> None:
        if self.subsample_size > dataset.n_rows:
            raise ValueError(
                f"subsample_size {self.subsample_size} exceeds dataset rows "
                f"{dataset.n_rows}"
            )
        if self.features_per_split > dataset.n_features:
            raise ValueError(
                f"features_per_split {self.features_per_split} exceeds feature "
                f"count {dataset.n_features}"
            )
        if self.min_leaf > self.subsample_size:
            raise ValueError(
                f"min_leaf {self.min_leaf} exceeds subsample_size {self.subsample_size}"
            )


@dataclass(frozen=True)
class DecisionTree:
    """A fitted binary regression tree in flat-array form.

    Internal node i (0-based) splits ``split_features[i]`` at
    ``split_thresholds[i]``. A child pointer c refers to internal node c when
    ``c < K - 1`` and to leaf ``c - (K - 1)`` otherwise, where K is the leaf
    count. Leaves are numbered 0..K-1 left-to-right. A K=1 tree has no
    internal nodes and its single leaf is the root.

    Internal nodes are numbered in preorder, so every child pointer exceeds
    its parent's index; with every node but the root and every leaf
    referenced exactly once, this makes the arrays a tree that any descent
    leaves in at most K-1 steps.
    """

    split_features: np.ndarray
    split_thresholds: np.ndarray
    children_left: np.ndarray
    children_right: np.ndarray
    leaf_values: np.ndarray
    leaf_counts: np.ndarray

    def __post_init__(self) -> None:
        for name in (
            "split_features",
            "split_thresholds",
            "children_left",
            "children_right",
            "leaf_values",
            "leaf_counts",
        ):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        k = self.leaf_values.shape[0]
        if k < 1:
            raise ValueError("tree must have at least one leaf")
        if self.split_features.shape[0] != k - 1:
            raise ValueError(
                f"{self.split_features.shape[0]} internal nodes for {k} leaves; "
                f"a proper binary tree needs exactly K-1"
            )
        for name in ("split_thresholds", "children_left", "children_right"):
            if getattr(self, name).shape != (k - 1,):
                raise ValueError(f"{name} must have K-1 = {k - 1} entries")
        if self.leaf_counts.shape != (k,) or self.leaf_counts.min() < 0:
            raise ValueError(f"leaf_counts must be K = {k} non-negative counts")
        if self.split_features.min(initial=0) < 0:
            raise ValueError("split features must be non-negative column indices")
        # Preorder and in range: node i's pointers lie in (i, 2K-2]. The 2K-2
        # pointers then reference every slot 1..2K-2 exactly once iff no slot
        # is referenced twice.
        children = np.concatenate([self.children_left, self.children_right])
        gaps = children.reshape(2, k - 1) - np.arange(k - 1)
        if gaps.min(initial=1) < 1 or children.max(initial=0) > 2 * (k - 1):
            raise ValueError(
                "child pointers must exceed their parent's index (preorder) "
                f"and lie below 2K-1 = {2 * k - 1}"
            )
        if np.bincount(children).max(initial=0) > 1:
            raise ValueError(
                "every internal node but the root and every leaf must be "
                "referenced exactly once"
            )

    @property
    def n_leaves(self) -> int:
        return self.leaf_values.shape[0]

    @property
    def n_internal(self) -> int:
        return self.split_features.shape[0]


@dataclass(frozen=True)
class Forest:
    """A fitted ensemble: M trees plus what is needed to trace them back to
    their training data.

    The rows each tree was fitted on are not stored: subsampling is a pure
    function of (config, dataset_rows), so :func:`rederive_subsamples`
    recomputes them. Every split feature is below ``n_features``.
    """

    trees: tuple[DecisionTree, ...]
    config: ForestConfig
    dataset_rows: int
    dataset_fingerprint: int
    n_features: int

    def __post_init__(self) -> None:
        if len(self.trees) != self.config.n_trees:
            raise ValueError(
                f"{len(self.trees)} trees for config.n_trees={self.config.n_trees}"
            )
        if self.n_features < 1:
            raise ValueError("forest must record a positive feature count")
        top = np.concatenate([t.split_features for t in self.trees]).max(initial=0)
        if top >= self.n_features:
            raise ValueError(
                f"a tree splits feature {int(top)} of a forest with "
                f"{self.n_features} features"
            )

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def subsample(dataset: Dataset, n: int, seed: int, tree_id: int) -> np.ndarray:
    """Draw n distinct row indices without replacement, keyed on (seed, tree_id)."""
    return subsample_indices(dataset.n_rows, n, seed, tree_id)


def subsample_indices(n_rows: int, n: int, seed: int, tree_id: int) -> np.ndarray:
    if n > n_rows:
        raise ValueError(f"cannot draw {n} distinct rows from {n_rows}")
    rng = _util.rng_for(seed, tree_id, _util.SUBSAMPLE_STREAM)
    return rng.permutation(n_rows)[:n]


def _leaf_stat(responses: np.ndarray, summary: str) -> float:
    if summary == "mean":
        return float(np.mean(responses))
    return float(np.median(responses))


def _best_split(
    x_col: np.ndarray, y: np.ndarray, min_leaf: int
) -> tuple[float, float] | None:
    """Best threshold on one feature, or None.

    Returns (weighted child SSE, threshold). Thresholds are midpoints between
    consecutive distinct sorted values; candidates leaving a child below
    min_leaf are skipped. Ties resolve to the lowest threshold.
    """
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    # centering leaves every SSE difference intact but avoids cancellation
    # when responses are large and nearly constant
    ys = y[order] - y.mean()
    m = ys.shape[0]
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    total_sum = csum[-1]
    total_sq = csq[-1]

    left_n = np.arange(1, m, dtype=np.float64)
    right_n = m - left_n
    left_sum = csum[:-1]
    left_sq = csq[:-1]
    sse = (left_sq - left_sum**2 / left_n) + (
        (total_sq - left_sq) - (total_sum - left_sum) ** 2 / right_n
    )

    mid = (xs[:-1] + xs[1:]) / 2.0
    # mid < xs[i] guards against midpoints that round up to the right value,
    # which would move that value to the left side and break the counted split
    valid = (xs[:-1] < xs[1:]) & (mid < xs[1:])
    valid &= (left_n >= min_leaf) & (right_n >= min_leaf)
    if not np.any(valid):
        return None
    sse = np.where(valid, sse, np.inf)
    best = int(np.argmin(sse))  # first minimum = lowest threshold
    return float(sse[best]), float(mid[best])


def fit_tree(
    dataset: Dataset, rows: np.ndarray, config: ForestConfig, tree_seed: int
) -> DecisionTree:
    """Grow one CART regression tree on the given rows.

    Feature candidates at each node are drawn without replacement from a
    generator keyed on (tree_seed, structural node path), so the tree is a
    pure function of its inputs no matter how nodes are scheduled.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape[0] < config.min_leaf:
        raise ValueError(
            f"cannot fit a tree on {rows.shape[0]} rows with min_leaf={config.min_leaf}"
        )
    x = dataset.features[rows]
    y = dataset.responses[rows]
    p = dataset.n_features
    k_feats = min(config.features_per_split, p)

    node_feature: list[int] = []
    node_threshold: list[float] = []
    node_left: list[object] = []
    node_right: list[object] = []
    leaf_value: list[float] = []
    leaf_count: list[int] = []

    def make_leaf(idx: np.ndarray) -> tuple[str, int]:
        leaf_value.append(_leaf_stat(y[idx], config.leaf_summary))
        leaf_count.append(int(idx.shape[0]))
        return ("leaf", len(leaf_value) - 1)

    def build(idx: np.ndarray, depth: int, path: int) -> tuple[str, int]:
        size = idx.shape[0]
        if depth >= config.max_depth or size < 2 * config.min_leaf:
            return make_leaf(idx)

        centered = y[idx] - y[idx].mean()
        parent_sse = float(np.sum(centered**2))
        rng = _util.rng_for(tree_seed, path, _util.FEATURE_STREAM)
        candidates = np.sort(rng.permutation(p)[:k_feats])

        best_feature = -1
        best_threshold = 0.0
        best_sse = np.inf
        for f in candidates:
            found = _best_split(x[idx, f], y[idx], config.min_leaf)
            if found is not None and found[0] < best_sse:
                best_sse, best_threshold = found
                best_feature = int(f)
        if best_feature < 0 or not best_sse < parent_sse:
            return make_leaf(idx)

        my_id = len(node_feature)
        node_feature.append(best_feature)
        node_threshold.append(best_threshold)
        node_left.append(None)
        node_right.append(None)
        go_left = x[idx, best_feature] <= best_threshold
        node_left[my_id] = build(idx[go_left], depth + 1, 2 * path)
        node_right[my_id] = build(idx[~go_left], depth + 1, 2 * path + 1)
        return ("node", my_id)

    build(np.arange(rows.shape[0]), 0, 1)

    n_internal = len(node_feature)

    def encode(ref: tuple[str, int]) -> int:
        kind, i = ref
        return i if kind == "node" else n_internal + i

    return DecisionTree(
        split_features=np.array(node_feature, dtype=np.int32),
        split_thresholds=np.array(node_threshold, dtype=np.float64),
        children_left=np.array([encode(r) for r in node_left], dtype=np.int32),
        children_right=np.array([encode(r) for r in node_right], dtype=np.int32),
        leaf_values=np.array(leaf_value, dtype=np.float64),
        leaf_counts=np.array(leaf_count, dtype=np.int32),
    )


def traverse(tree: DecisionTree, x: np.ndarray) -> int:
    """Leaf index reached by descending the tree; left branch takes x <= threshold."""
    x = np.asarray(x, dtype=np.float64)
    n_internal = tree.n_internal
    if n_internal == 0:
        return 0
    node = 0
    while node < n_internal:
        f = tree.split_features[node]
        if f >= x.shape[0]:
            raise ValueError(
                f"input has {x.shape[0]} features but tree splits feature {f}"
            )
        if x[f] <= tree.split_thresholds[node]:
            node = int(tree.children_left[node])
        else:
            node = int(tree.children_right[node])
    return node - n_internal


def traverse_batch(tree: DecisionTree, x: np.ndarray) -> np.ndarray:
    """Vectorized traverse for a (N, p) matrix; returns (N,) leaf indices."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n_internal = tree.n_internal
    if n_internal == 0:
        return np.zeros(x.shape[0], dtype=np.int64)
    if int(tree.split_features.max()) >= x.shape[1]:
        raise ValueError(
            f"input has {x.shape[1]} features but tree splits feature "
            f"{int(tree.split_features.max())}"
        )
    node = np.zeros(x.shape[0], dtype=np.int64)
    active = node < n_internal
    while np.any(active):
        idx = np.nonzero(active)[0]
        cur = node[idx]
        feat = tree.split_features[cur]
        thresh = tree.split_thresholds[cur]
        left = x[idx, feat] <= thresh
        node[idx] = np.where(
            left, tree.children_left[cur], tree.children_right[cur]
        )
        active = node < n_internal
    return node - n_internal


def tree_predict(tree: DecisionTree, x: np.ndarray) -> float:
    """Leaf summary value at the leaf reached by x."""
    return float(tree.leaf_values[traverse(tree, x)])


def tree_predict_batch(tree: DecisionTree, x: np.ndarray) -> np.ndarray:
    return tree.leaf_values[traverse_batch(tree, x)]


def fit_forest(
    dataset: Dataset, config: ForestConfig, n_jobs: int | None = None
) -> Forest:
    """Fit config.n_trees trees, each on its own without-replacement subsample.

    Fully deterministic in config.seed: per-tree subsamples and per-node
    feature draws use independent streams keyed on the tree index, so results
    are identical for any worker count.
    """
    config.validate_against(dataset)

    def fit_one(m: int) -> DecisionTree:
        rows = subsample(dataset, config.subsample_size, config.seed, m)
        tree_seed = _util.derive_seed(config.seed, m, _util.TREE_STREAM)
        return fit_tree(dataset, rows, config, tree_seed)

    trees = _util.parallel_map(fit_one, range(config.n_trees), n_jobs)
    return Forest(
        trees=tuple(trees),
        config=config,
        dataset_rows=dataset.n_rows,
        dataset_fingerprint=dataset.fingerprint(),
        n_features=dataset.n_features,
    )


def rederive_subsamples(forest: Forest) -> tuple[np.ndarray, ...]:
    """Each tree's training rows, recomputed from the seeded draw that
    :func:`fit_forest` made."""
    cfg = forest.config
    return tuple(
        subsample_indices(forest.dataset_rows, cfg.subsample_size, cfg.seed, m)
        for m in range(cfg.n_trees)
    )


def forest_predict(forest: Forest, x: np.ndarray) -> float:
    """Ensemble forecast: arithmetic mean of the per-tree predictions."""
    # Trees check only the features they split on, so a stump forest, or one
    # that never splits the last column, would take rows of the wrong width.
    # len() is the cheapest such test on this per-row path.
    if len(x) != forest.n_features:
        raise ValueError(f"input has {len(x)} features, forest expects {forest.n_features}")
    per_tree = np.array([tree_predict(t, x) for t in forest.trees])
    return float(np.mean(per_tree))


def forest_predict_batch(forest: Forest, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != forest.n_features:
        raise ValueError(
            f"input has {x.shape[1]} features, forest expects {forest.n_features}"
        )
    stacked = np.stack([tree_predict_batch(t, x) for t in forest.trees])
    return np.mean(stacked, axis=0)
