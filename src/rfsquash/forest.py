"""CART regression trees and without-replacement random forest ensembles.

Trees are grown greedily: at each node a random subset of features is
considered, and the (feature, midpoint-threshold) pair minimizing the
count-weighted sum of child response variances is taken, provided it strictly
improves on the parent. The left branch takes x <= threshold. With k >= p
every node takes every feature without a draw: any draw of all p features,
sorted, is ``arange(p)``.

A node scores all its candidate features in one matrix pass. Each tree sorts
every column once, stably, and each split partitions these orders stably; row
cumulative sums then give every cut's child SSE, and the first minimum in
candidate-major order wins: the lowest feature, then the lowest threshold.
The trees are bit-identical to scoring one column at a time.

Batch prediction descends every tree at once. On its first batch predict a
:class:`Forest` compiles its M trees into flat arrays over all their nodes:
split features, thresholds, one interleaved children array (node i's left
child at 2i, its right at 2i+1), node values and each tree's root offset.
Leaves become nodes that point to themselves under a +inf threshold, so a
step taken at a leaf changes nothing. Each tree's depth is counted in the
arrays, since nothing else bounds how deep a decoded tree is, and the trees
are ordered deepest first: step s advances only the prefix of trees deeper
than s, so the steps sum to the trees' depths, not M times the deepest.
Rows go in blocks of ``_CELLS // M`` (at least one), and each step advances
the (tree, row) cells of a block by one level with four gathers; the
block's (M, block) nodes are put back in tree order unless the trees
already come deepest first.
Each block's leaf values are averaged into the (N,) output by adding the
trees in order, as over a full (M, N) array, a row alone in its block
included (numpy would sum its (M, 1) slab pairwise). The cost is
O(N * the sum of tree depths), the memory O(N + _CELLS);
:func:`traverse_batch` runs the same descent on one tree.

A single row walks Python objects instead: on its first single-row predict
a :class:`Forest` builds one list over every node in the same layout, an
internal node a tuple ``(feature, threshold, left, right)`` and a leaf its
value. Each tree's walk costs a few bytecodes per level, where indexing
numpy arrays one scalar at a time in :func:`traverse` cost several times
more. The walk adds the M leaf values in tree order as it reaches them, so a
row's forecast is bit for bit its forecast in any batch.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import _util
from .data import Dataset

LEAF_SUMMARIES = ("mean", "median")

# (tree, row) cells per descent block: each step's temporaries stay a few
# hundred KiB whatever the row count. On a 2-vCPU x86-64 VM, 2**14 was the
# fastest of 2**12 to 2**16, or within 4% of it, for 20k rows on every
# benchmark workload; 2**12 took up to 1.7x as long on serve_d5 (M=50, 81
# rows per block) and 2**16 up to 1.1x.
_CELLS = 2**14


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

    def validate_against(self, n_rows: int, n_features: int) -> None:
        if self.subsample_size > n_rows:
            raise ValueError(
                f"subsample_size {self.subsample_size} exceeds dataset rows {n_rows}"
            )
        if self.features_per_split > n_features:
            raise ValueError(
                f"features_per_split {self.features_per_split} exceeds feature "
                f"count {n_features}"
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
    recomputes them. The config passes ``validate_against`` on the recorded
    row and feature counts, as in :func:`fit_forest`; every split feature is
    below ``n_features``, every leaf value and threshold is finite, and each
    tree's leaf counts sum to ``config.subsample_size``.
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
        self.config.validate_against(self.dataset_rows, self.n_features)
        top = np.concatenate([t.split_features for t in self.trees]).max(initial=0)
        if top >= self.n_features:
            raise ValueError(
                f"a tree splits feature {int(top)} of a forest with "
                f"{self.n_features} features"
            )
        # one check over every tree's values: one per tree costs ~10x more
        values = [a for t in self.trees for a in (t.leaf_values, t.split_thresholds)]
        if not np.isfinite(np.concatenate(values)).all():
            raise ValueError("leaf values and split thresholds must be finite")
        # each tree's leaves partition its subsample; one pass, as above
        # (small lists stay lists: converting them costs more than the sums)
        counts = [t.leaf_counts for t in self.trees]
        starts = list(accumulate([len(c) for c in counts[:-1]], initial=0))
        sums = np.add.reduceat(np.concatenate(counts), starts, dtype=np.int64).tolist()
        n = self.config.subsample_size
        if sums.count(n) != len(sums):
            tree = next(m for m, total in enumerate(sums) if total != n)
            raise ValueError(
                f"tree {tree}'s leaf counts sum to {sums[tree]}, not subsample_size {n}"
            )

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @cached_property
    def _flat(self) -> _Flat:
        """Every tree's nodes in flat arrays, built on first batch predict; it
        is not a field, so it is neither compared nor serialized."""
        return _flatten(self.trees)

    @cached_property
    def _nodes(self) -> _Nodes:
        """Every tree's nodes as Python objects, built on first single-row
        predict; like ``_flat``, it is neither compared nor serialized."""
        return _node_objects(self.trees)


def subsample_indices(n_rows: int, n: int, seed: int, tree_id: int) -> np.ndarray:
    """Draw n distinct row indices without replacement, keyed on (seed, tree_id)."""
    if n > n_rows:
        raise ValueError(f"cannot draw {n} distinct rows from {n_rows}")
    rng = _util.rng_for(seed, tree_id, _util.SUBSAMPLE_STREAM)
    return rng.permutation(n_rows)[:n]


def _best_split(
    xs: np.ndarray, ys: np.ndarray, min_leaf: int
) -> tuple[float, int, float]:
    """Best split of a node: (weighted child SSE, candidate row, threshold).

    Row j of ``xs`` holds candidate j's values at the node in ascending order
    (ties in row order), and row j of ``ys`` the centered responses in that
    order; ``ys`` is overwritten. Thresholds are midpoints between consecutive
    distinct values; cuts leaving a child below min_leaf are skipped (SSE inf
    if none is left).
    """
    m = xs.shape[1]
    # cumsum along a row adds in the same order as on a lone column
    csum = np.cumsum(ys, axis=1)
    ys *= ys
    csq = np.cumsum(ys, axis=1)
    # cutting after sorted position i leaves i+1 rows on the left; keep the
    # cuts that leave at least min_leaf rows on each side
    cut = slice(min_leaf - 1, m - min_leaf)
    left_n = np.arange(min_leaf, m - min_leaf + 1, dtype=np.float64)
    right_n = m - left_n
    left_sum = csum[:, cut]
    left_sq = csq[:, cut]
    sse = (left_sq - left_sum**2 / left_n) + (
        (csq[:, -1:] - left_sq) - (csum[:, -1:] - left_sum) ** 2 / right_n
    )

    hi = xs[:, min_leaf : m - min_leaf + 1]
    mid = np.add(xs[:, cut], hi)
    mid /= 2.0
    # mid < hi guards against midpoints that round up to the right value,
    # which would move that value to the left side and break the counted
    # split; on sorted rows it also skips equal values (mid == hi) and
    # overflowing sums (inf)
    np.copyto(sse, np.inf, where=~(mid < hi))
    # the first minimum in row-major (candidate-major) order
    row, col = divmod(int(np.argmin(sse)), sse.shape[1])
    return float(sse[row, col]), row, float(mid[row, col])


def fit_tree(
    dataset: Dataset, rows: np.ndarray, config: ForestConfig, tree_seed: int
) -> DecisionTree:
    """Grow one CART regression tree on the given rows.

    Feature candidates at each node are drawn without replacement from a
    generator keyed on (tree_seed, structural node path), so the tree is a
    pure function of its inputs no matter how nodes are scheduled. When
    every feature is a candidate, no generator is built.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n, p = rows.shape[0], dataset.n_features
    if n < config.min_leaf:
        raise ValueError(f"cannot fit a tree on {n} rows with min_leaf={config.min_leaf}")
    # one row per feature: feature f of row position i sits at n * f + i
    xt = np.ascontiguousarray(dataset.features[rows].T)
    y = dataset.responses[rows]
    k_feats = min(config.features_per_split, p)
    every = np.arange(p)
    every_offset = n * every[:, None]

    # Internal nodes in preorder as [feature, threshold, left, right]; a child
    # reference c >= 0 is node c and c < 0 is leaf -c - 1, leaves left to right.
    nodes: list[list] = []
    leaves: list[tuple[float, int]] = []  # (value, row count)
    median = config.leaf_summary == "median"

    def make_leaf(idx: np.ndarray) -> int:
        m = idx.shape[0]
        # sum / m is np.mean's own pairwise sum and division
        value = np.median(y[idx]) if median else y[idx].sum() / m
        leaves.append((float(value), m))
        return -len(leaves)

    def build(idx: np.ndarray, ranked: np.ndarray, depth: int, path: int) -> int:
        """Grow the subtree of the row positions ``idx`` (ascending); row f
        of ``ranked`` holds the same positions sorted by feature f."""
        if depth >= config.max_depth or idx.shape[0] < 2 * config.min_leaf:
            return make_leaf(idx)

        yy = y[idx]
        mean = yy.sum() / idx.shape[0]
        yy -= mean
        yy *= yy
        parent_sse = float(yy.sum())
        if k_feats == p:
            # a draw of all p features, sorted, is arange(p): skip it
            candidates, order, offset = every, ranked, every_offset
        else:
            rng = _util.rng_for(tree_seed, path, _util.FEATURE_STREAM)
            candidates = np.sort(rng.permutation(p)[:k_feats])
            order, offset = ranked[candidates], n * candidates[:, None]
        # centering leaves every SSE difference intact but avoids
        # cancellation when responses are large and nearly constant
        best_sse, row, threshold = _best_split(
            xt.take(order + offset), y[order] - mean, config.min_leaf
        )
        if not best_sse < parent_sse:
            return make_leaf(idx)

        my_id = len(nodes)
        node = [int(candidates[row]), threshold, 0, 0]
        nodes.append(node)
        left = xt[node[0]] <= threshold
        # one gather serves both sides; a stable partition keeps every row of
        # ranked sorted
        at, goes = left.take(idx), left.take(ranked).ravel()
        kept = ranked.compress(goes).reshape(p, -1)
        node[2] = build(idx[at], kept, depth + 1, 2 * path)
        at, goes = ~at, ~goes
        kept = ranked.compress(goes).reshape(p, -1)
        node[3] = build(idx[at], kept, depth + 1, 2 * path + 1)
        return my_id

    # Sort each feature once per tree, ties by position (a stable sort): the
    # order of a node's rows is then that of its parent, restricted to them.
    build(np.arange(n), np.argsort(xt, axis=1, kind="stable"), 0, 1)

    table = np.array(nodes, dtype=np.float64).reshape(-1, 4)  # ints are exact
    children = table[:, 2:].T.astype(np.int32)
    children[children < 0] = len(nodes) - 1 - children[children < 0]
    values, counts = zip(*leaves)
    return DecisionTree(
        split_features=table[:, 0].astype(np.int32),
        split_thresholds=table[:, 1].copy(),
        children_left=children[0],
        children_right=children[1],
        leaf_values=np.array(values, dtype=np.float64),
        leaf_counts=np.array(counts, dtype=np.int32),
    )


def traverse(tree: DecisionTree, x: np.ndarray) -> int:
    """Leaf index reached by descending the tree; left branch takes x <= threshold.
    x must be one row, a 1-D vector: indexing a matrix would read its rows.
    A single-leaf tree splits no feature, so it takes a row of any width."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"traverse expects one 1-D row, got an input of shape {x.shape}")
    n_internal = tree.n_internal
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
    """Vectorized traverse for a (N, p) matrix or one 1-D row; returns (N,)
    leaf indices."""
    x = _util.rows(x, None, "traverse_batch")
    top = int(tree.split_features.max(initial=-1))
    if top >= x.shape[1]:
        raise ValueError(f"input has {x.shape[1]} features but tree splits feature {top}")
    leaves = np.empty(x.shape[0], dtype=np.intp)
    for rows, nodes in _descend_blocks(_flatten((tree,)), x):
        leaves[rows] = nodes[0] - tree.n_internal
    return leaves


def tree_predict(tree: DecisionTree, x: np.ndarray) -> float:
    """Leaf summary value at the leaf reached by x."""
    return float(tree.leaf_values[traverse(tree, x)])


def fit_forest(dataset: Dataset, config: ForestConfig) -> Forest:
    """Fit config.n_trees trees, each on its own without-replacement subsample.

    Fully deterministic in config.seed: per-tree subsamples and per-node
    feature draws use independent streams keyed on the tree index. Trees are
    fitted one after another on the calling thread: the split search holds
    the interpreter lock, so worker threads only slowed it (2 vCPUs, two
    threads against one: 0.13 s against 0.10 s on the ``pilot_d8`` shape).
    """
    config.validate_against(dataset.n_rows, dataset.n_features)
    trees = []
    for m in range(config.n_trees):
        rows = subsample_indices(dataset.n_rows, config.subsample_size, config.seed, m)
        tree_seed = _util.derive_seed(config.seed, m, _util.TREE_STREAM)
        trees.append(fit_tree(dataset, rows, config, tree_seed))
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
    """Ensemble forecast at one row x: arithmetic mean of the per-tree
    predictions."""
    # the walk reads only the features the trees split on, so it would take
    # a row of the wrong width, and index a matrix by its rows
    row = _util.one_row(x, forest.n_features, "forest").tolist()
    nodes, roots = forest._nodes
    # -0.0 + v is v: the walk adds the leaf values in tree order, as the
    # batch path does; the rare sum that overflows is left to the batch path
    total = -0.0
    for root in roots:
        node = nodes[root]
        while node.__class__ is tuple:
            f, t, left, right = node
            # NaN fails x <= threshold and goes right, as in traverse
            node = nodes[left if row[f] <= t else right]
        total += node
    mean = total / len(roots)
    if math.isfinite(mean):
        return mean
    return float(forest_predict_batch(forest, row)[0])


def forest_predict_batch(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Ensemble forecasts at every row of x: the mean over trees, taken one
    row block at a time."""
    x = _util.rows(x, forest.n_features, "forest")
    flat = forest._flat
    out = np.empty(x.shape[0])
    for rows, nodes in _descend_blocks(flat, x):
        out[rows] = _util.mean_over_trees(flat.values.take(nodes))
    return out


class _Flat(NamedTuple):
    """The nodes of M trees in one array each (see module docs). Tree m's
    nodes start at its root: its internal nodes in preorder, then its leaves
    left to right, so a tree's own child pointer c is node ``root + c``."""

    features: np.ndarray  # split column as intp; 0 at leaves
    thresholds: np.ndarray  # +inf at leaves
    children: np.ndarray  # left child at 2i, right at 2i+1; both are i at a leaf
    values: np.ndarray  # the leaf value at leaves, 0 at internal nodes
    roots: np.ndarray  # (M,) intp, deepest tree first (ties in tree order)
    unsort: np.ndarray | None  # puts root-ordered rows back in tree order; None if no-op
    live: list[int]  # per step s, how many leading roots' trees are deeper than s


def _flatten(trees: Sequence[DecisionTree]) -> _Flat:
    sizes = np.array([t.n_leaves for t in trees]) * 2 - 1
    roots = np.cumsum(sizes) - sizes
    node = np.arange(sizes.sum())
    # a node is internal when its place in its tree is below K-1 = size // 2
    internal = node - np.repeat(roots, sizes) < np.repeat(sizes // 2, sizes)
    offsets = np.repeat(roots, sizes // 2)
    features = np.zeros(node.shape[0], dtype=np.intp)
    features[internal] = np.concatenate([t.split_features for t in trees])
    thresholds = np.full(node.shape[0], np.inf)
    thresholds[internal] = np.concatenate([t.split_thresholds for t in trees])
    pairs = np.repeat(node, 2).reshape(-1, 2)
    pairs[internal, 0] = np.concatenate([t.children_left for t in trees]) + offsets
    pairs[internal, 1] = np.concatenate([t.children_right for t in trees]) + offsets
    values = np.zeros(node.shape[0])
    values[~internal] = np.concatenate([t.leaf_values for t in trees])
    # each tree's deepest leaf, one level per pass; every tree is validated
    # acyclic, so this ends
    tree_of = np.repeat(np.arange(len(trees)), sizes)
    depths = np.zeros(len(trees), dtype=np.intp)
    depth, level = 0, roots[internal[roots]]
    while level.size:
        depth += 1
        depths[tree_of[level]] = depth
        level = pairs[level].ravel()
        level = level[internal[level]]
    # deepest first, so the trees deeper than step s are a prefix
    order = np.argsort(-depths, kind="stable")
    shallower = np.searchsorted(np.sort(depths), np.arange(depth), side="right")
    live = (len(trees) - shallower).tolist()
    unsort = None if (order == np.arange(len(trees))).all() else np.argsort(order)
    return _Flat(features, thresholds, pairs.ravel(), values, roots[order], unsort, live)


class _Nodes(NamedTuple):
    """The nodes of M trees in one list, in the layout of :class:`_Flat`: an
    internal node is a tuple ``(feature, threshold, left, right)`` of Python
    numbers whose children are indices into the list, and a leaf is its value
    as a float. A tuple walk over Python numbers costs a fraction of indexing
    numpy arrays one scalar at a time."""

    nodes: list
    roots: list[int]


def _node_objects(trees: Sequence[DecisionTree]) -> _Nodes:
    nodes: list = []
    roots = []
    for t in trees:
        root = len(nodes)
        roots.append(root)
        nodes += zip(
            t.split_features.tolist(),
            t.split_thresholds.tolist(),
            [root + c for c in t.children_left.tolist()],
            [root + c for c in t.children_right.tolist()],
        )
        nodes += t.leaf_values.tolist()
    return _Nodes(nodes, roots)


def _descend_blocks(flat: _Flat, x: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """For each block of rows of x, the (M, block) nodes where its rows end
    up in every tree, in tree order: one level per step, and step s moves
    only the trees deeper than s, so one deep tree does not hold the rest."""
    m, n = flat.roots.shape[0], x.shape[0]
    block = max(1, _CELLS // m)
    for start in range(0, n, block):
        rows = slice(start, min(start + block, n))
        # a row-major block, so that feature f of row i sits at i * p + f
        xb = np.ascontiguousarray(x[rows])
        b, p = xb.shape
        cells = xb.ravel()
        row_offset = np.arange(b) * p
        nodes = np.repeat(flat.roots, b).reshape(m, b)
        for k in flat.live:
            live = nodes[:k]
            xv = cells.take(row_offset + flat.features.take(live))
            # NaN fails x <= threshold and goes right, as in traverse
            step = flat.children.take(2 * live + ~(xv <= flat.thresholds.take(live)))
            if k == m:  # every tree still descends: rebinding saves a copy
                nodes = step
            else:
                nodes[:k] = step
        if flat.unsort is not None:
            nodes = nodes.take(flat.unsort, axis=0)
        yield rows, nodes
