"""Tests for CART tree fitting, traversal, and the forest ensemble."""

import dataclasses
import hashlib
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsquash import _util
from rfsquash import forest as forest_module
from rfsquash import surrogate as surrogate_module
from rfsquash.codec import decode, encode
from rfsquash.data import Dataset, gen_axis_partition, gen_friedman1
from rfsquash.forest import (
    DecisionTree,
    Forest,
    ForestConfig,
    fit_forest,
    fit_tree,
    forest_predict,
    forest_predict_batch,
    rederive_subsamples,
    subsample_indices,
    traverse,
    traverse_batch,
    tree_predict,
)
from rfsquash.mlr import MlrFitConfig
from rfsquash.surrogate import squash_forest


def _stump(threshold: float, left_value: float, right_value: float) -> DecisionTree:
    return DecisionTree(
        split_features=np.array([0], dtype=np.int32),
        split_thresholds=np.array([threshold]),
        children_left=np.array([1], dtype=np.int32),
        children_right=np.array([2], dtype=np.int32),
        leaf_values=np.array([left_value, right_value]),
        leaf_counts=np.array([1, 1], dtype=np.int32),
    )


def _single_leaf(value: float, count: int = 1) -> DecisionTree:
    return DecisionTree(
        split_features=np.zeros(0, dtype=np.int32),
        split_thresholds=np.zeros(0),
        children_left=np.zeros(0, dtype=np.int32),
        children_right=np.zeros(0, dtype=np.int32),
        leaf_values=np.array([value]),
        leaf_counts=np.array([count], dtype=np.int32),
    )


def _manual_forest(trees, n=1, seed=0):
    config = ForestConfig(
        subsample_size=n,
        features_per_split=1,
        max_depth=1,
        n_trees=len(trees),
        seed=seed,
    )
    return Forest(
        trees=tuple(trees),
        config=config,
        dataset_rows=n,
        dataset_fingerprint=0,
        n_features=1,
    )


def _brute_force_best_split(x, y, min_leaf):
    """Independent oracle: try every feature and every midpoint directly."""
    best = None
    n = y.shape[0]
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2
            left = x[:, f] <= threshold
            nl, nr = left.sum(), n - left.sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = nl * y[left].var() + nr * y[~left].var()
            if best is None or sse < best[0] - 1e-12:
                best = (sse, f, threshold)
    return best


def _column_loop_tree(dataset, rows, config, tree_seed):
    """Test-only oracle: grow the tree scoring one candidate column at a time,
    keeping a column only if its best SSE is strictly lower than the best so
    far, with the arithmetic of a lone-column scan."""
    x, y = dataset.features[rows], dataset.responses[rows]
    p = dataset.n_features
    nodes, leaves = [], []  # [feature, threshold, left ref, right ref]; (value, count)
    summary = np.median if config.leaf_summary == "median" else np.mean

    def column_split(col, ys_node):
        order = np.argsort(col, kind="stable")
        xs, ys = col[order], ys_node[order] - ys_node.mean()
        m = ys.shape[0]
        csum, csq = np.cumsum(ys), np.cumsum(ys * ys)
        left_n = np.arange(1, m, dtype=np.float64)
        right_n = m - left_n
        sse = (csq[:-1] - csum[:-1] ** 2 / left_n) + (
            (csq[-1] - csq[:-1]) - (csum[-1] - csum[:-1]) ** 2 / right_n
        )
        mid = (xs[:-1] + xs[1:]) / 2.0
        valid = (xs[:-1] < xs[1:]) & (mid < xs[1:])
        valid &= (left_n >= config.min_leaf) & (right_n >= config.min_leaf)
        if not valid.any():
            return np.inf, 0.0
        best = int(np.argmin(np.where(valid, sse, np.inf)))
        return sse[best], mid[best]

    def grow(idx, depth, path):
        if depth >= config.max_depth or idx.shape[0] < 2 * config.min_leaf:
            leaves.append((float(summary(y[idx])), idx.shape[0]))
            return ("leaf", len(leaves) - 1)
        parent_sse = float(np.sum((y[idx] - y[idx].mean()) ** 2))
        rng = _util.rng_for(tree_seed, path, _util.FEATURE_STREAM)
        best_sse, feature, threshold = np.inf, -1, 0.0
        for f in np.sort(rng.permutation(p)[: config.features_per_split]):
            sse, mid = column_split(x[idx, f], y[idx])
            if sse < best_sse:
                best_sse, feature, threshold = sse, int(f), mid
        if not best_sse < parent_sse:
            leaves.append((float(summary(y[idx])), idx.shape[0]))
            return ("leaf", len(leaves) - 1)
        node_id = len(nodes)
        node = [feature, threshold, None, None]
        nodes.append(node)
        go_left = x[idx, feature] <= threshold
        node[2] = grow(idx[go_left], depth + 1, 2 * path)
        node[3] = grow(idx[~go_left], depth + 1, 2 * path + 1)
        return ("node", node_id)

    grow(np.arange(len(rows)), 0, 1)  # nodes in preorder, leaves left to right

    def ref(r):
        return r[1] if r[0] == "node" else len(nodes) + r[1]

    return DecisionTree(
        split_features=np.array([n[0] for n in nodes], dtype=np.int32),
        split_thresholds=np.array([n[1] for n in nodes], dtype=np.float64),
        children_left=np.array([ref(n[2]) for n in nodes], dtype=np.int32),
        children_right=np.array([ref(n[3]) for n in nodes], dtype=np.int32),
        leaf_values=np.array([v for v, _ in leaves], dtype=np.float64),
        leaf_counts=np.array([c for _, c in leaves], dtype=np.int32),
    )


class TestSubsample:
    def test_full_sample_is_every_row(self):
        ds = gen_friedman1(17, 0.0, seed=0)
        rows = subsample_indices(ds.n_rows, 17, seed=5, tree_id=0)
        assert sorted(rows) == list(range(17))

    def test_distinct_and_in_range(self):
        ds = gen_friedman1(10, 0.0, seed=0)
        rows = subsample_indices(ds.n_rows, 3, seed=1, tree_id=2)
        assert len(rows) == 3
        assert len(set(rows.tolist())) == 3
        assert all(0 <= r < 10 for r in rows)

    def test_oversized_draw_rejected(self):
        ds = gen_friedman1(5, 0.0, seed=0)
        with pytest.raises(ValueError, match="cannot draw"):
            subsample_indices(ds.n_rows, 6, seed=0, tree_id=0)

    def test_deterministic_per_key(self):
        ds = gen_friedman1(50, 0.0, seed=0)
        a = subsample_indices(ds.n_rows, 10, seed=3, tree_id=7)
        b = subsample_indices(ds.n_rows, 10, seed=3, tree_id=7)
        c = subsample_indices(ds.n_rows, 10, seed=3, tree_id=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniformity(self):
        # binomial oracle over 10000 single-row draws from 4 rows
        ds = gen_friedman1(4, 0.0, seed=0)
        draws = np.array(
            [subsample_indices(ds.n_rows, 1, seed=0, tree_id=t)[0] for t in range(10_000)]
        )
        freq = np.bincount(draws, minlength=4) / 10_000
        tol = 3 * np.sqrt(0.25 * 0.75 / 10_000)
        assert np.all(np.abs(freq - 0.25) < tol)


class TestFitTree:
    def test_recovers_axis_split(self):
        ds = gen_axis_partition(200, [(0, 0.5)], [2.0, 4.0], seed=1, p=3)
        config = ForestConfig(
            subsample_size=200, features_per_split=3, max_depth=2, n_trees=1, seed=0
        )
        rows = np.arange(200)
        tree = fit_tree(ds, rows, config, tree_seed=9)
        assert tree.n_leaves == 2
        assert tree.split_features[0] == 0
        oracle = _brute_force_best_split(ds.features, ds.responses, config.min_leaf)
        assert oracle[1] == 0
        assert tree.split_thresholds[0] == pytest.approx(oracle[2], abs=0)
        x0 = ds.features[:, 0]
        lo, hi = x0[x0 <= 0.5].max(), x0[x0 > 0.5].min()
        assert lo < tree.split_thresholds[0] < hi
        assert sorted(tree.leaf_values.tolist()) == [2.0, 4.0]

    def test_matches_brute_force_on_noisy_data(self):
        rng = np.random.default_rng(12)
        x = rng.random((60, 4))
        y = rng.normal(size=60)
        ds = Dataset(y, x)
        config = ForestConfig(
            subsample_size=60, features_per_split=4, max_depth=1, n_trees=1, min_leaf=2
        )
        tree = fit_tree(ds, np.arange(60), config, tree_seed=0)
        oracle = _brute_force_best_split(x, y, 2)
        assert tree.split_features[0] == oracle[1]
        assert tree.split_thresholds[0] == pytest.approx(oracle[2], rel=1e-12)

    def test_depth_zero_single_leaf_mean(self):
        ds = gen_friedman1(30, 1.0, seed=2)
        config = ForestConfig(
            subsample_size=30, features_per_split=10, max_depth=0, n_trees=1
        )
        tree = fit_tree(ds, np.arange(30), config, tree_seed=1)
        assert tree.n_leaves == 1
        assert tree.leaf_values[0] == pytest.approx(ds.responses.mean(), rel=1e-15)
        assert tree.leaf_counts[0] == 30

    def test_constant_response_stays_single_leaf(self):
        rng = np.random.default_rng(0)
        ds = Dataset(np.full(40, 3.25), rng.random((40, 2)))
        config = ForestConfig(
            subsample_size=40, features_per_split=2, max_depth=6, n_trees=1
        )
        tree = fit_tree(ds, np.arange(40), config, tree_seed=0)
        assert tree.n_leaves == 1

    def test_leaf_counts_partition_subsample(self):
        ds = gen_friedman1(120, 1.0, seed=3)
        config = ForestConfig(
            subsample_size=80, features_per_split=4, max_depth=4, n_trees=1, min_leaf=5
        )
        rows = subsample_indices(ds.n_rows, 80, seed=0, tree_id=0)
        tree = fit_tree(ds, rows, config, tree_seed=4)
        assert tree.leaf_counts.sum() == 80
        assert tree.leaf_counts.min() >= 5
        # leaf indices 0..K-1 used exactly once by construction
        labels = traverse_batch(tree, ds.features[rows])
        np.testing.assert_array_equal(
            np.bincount(labels, minlength=tree.n_leaves), tree.leaf_counts
        )

    def test_accepted_splits_strictly_reduce_weighted_variance(self):
        ds = gen_friedman1(150, 1.0, seed=5)
        config = ForestConfig(
            subsample_size=150, features_per_split=3, max_depth=5, n_trees=1, min_leaf=3
        )
        tree = fit_tree(ds, np.arange(150), config, tree_seed=2)
        x, y = ds.features, ds.responses

        def rows_reaching(node_id, x):
            reached = np.ones(x.shape[0], dtype=bool)
            # walk every row from the root, recording the path
            for i in range(x.shape[0]):
                node = 0
                ok = False
                while node < tree.n_internal:
                    if node == node_id:
                        ok = True
                    f = tree.split_features[node]
                    node = int(
                        tree.children_left[node]
                        if x[i, f] <= tree.split_thresholds[node]
                        else tree.children_right[node]
                    )
                reached[i] = ok or node_id == 0
            return reached

        for node in range(tree.n_internal):
            mask = rows_reaching(node, x)
            sub_x, sub_y = x[mask], y[mask]
            left = sub_x[:, tree.split_features[node]] <= tree.split_thresholds[node]
            parent = sub_y.shape[0] * sub_y.var()
            child = left.sum() * sub_y[left].var() + (~left).sum() * sub_y[~left].var()
            assert child < parent

    def test_too_few_rows_rejected(self):
        ds = gen_friedman1(10, 0.0, seed=0)
        config = ForestConfig(
            subsample_size=10, features_per_split=2, max_depth=2, n_trees=1, min_leaf=4
        )
        with pytest.raises(ValueError, match="min_leaf"):
            fit_tree(ds, np.arange(3), config, tree_seed=0)

    def test_median_leaf_summary(self):
        ds = Dataset(np.array([1.0, 2.0, 100.0]), np.array([[0.1], [0.2], [0.3]]))
        config = ForestConfig(
            subsample_size=3,
            features_per_split=1,
            max_depth=0,
            n_trees=1,
            leaf_summary="median",
        )
        tree = fit_tree(ds, np.arange(3), config, tree_seed=0)
        assert tree.leaf_values[0] == 2.0

    def test_feature_draws_vary_with_tree_seed(self):
        # with k < p, different tree seeds must be able to pick different
        # split features on the same rows
        rng = np.random.default_rng(44)
        x = rng.random((200, 6))
        y = x.sum(axis=1) + rng.normal(scale=0.1, size=200)
        ds = Dataset(y, x)
        config = ForestConfig(
            subsample_size=200, features_per_split=2, max_depth=3, n_trees=1
        )
        roots = {
            int(fit_tree(ds, np.arange(200), config, tree_seed=s).split_features[0])
            for s in range(12)
        }
        assert len(roots) > 1

    def test_large_response_offset_does_not_break_split(self):
        # responses of magnitude 1e8 with unit signal: the centered SSE scan
        # must still find the axis split
        base = gen_axis_partition(300, [(0, 0.5)], [2.0, 4.0], seed=3)
        ds = Dataset(base.responses + 1e8, base.features)
        config = ForestConfig(
            subsample_size=300, features_per_split=1, max_depth=1, n_trees=1
        )
        tree = fit_tree(ds, np.arange(300), config, tree_seed=0)
        assert tree.n_leaves == 2
        assert sorted(tree.leaf_values.tolist()) == [1e8 + 2.0, 1e8 + 4.0]

    def test_duplicate_column_loses_to_the_lower_index(self):
        # columns 0 and 2 are equal, so every node scores them equally
        rng = np.random.default_rng(8)
        signal = rng.random(120)
        x = np.column_stack([signal, rng.random(120), signal])
        ds = Dataset(np.sin(6 * signal) + rng.normal(scale=0.1, size=120), x)
        config = ForestConfig(
            subsample_size=120, features_per_split=3, max_depth=4, n_trees=1, min_leaf=2
        )
        tree = fit_tree(ds, np.arange(120), config, tree_seed=0)
        assert tree.split_features[0] == 0
        assert 2 not in tree.split_features

    def test_equal_sse_thresholds_take_the_lower(self):
        # cutting after the first or after the third row both give SSE 2/3
        ds = Dataset(np.array([0.0, 1.0, 1.0, 0.0]), np.array([[0.0], [1], [2], [3]]))
        config = ForestConfig(
            subsample_size=4, features_per_split=1, max_depth=1, n_trees=1
        )
        tree = fit_tree(ds, np.arange(4), config, tree_seed=0)
        assert tree.split_thresholds.tolist() == [0.5]


_TREE_ARRAYS = (
    "split_features",
    "split_thresholds",
    "children_left",
    "children_right",
    "leaf_values",
    "leaf_counts",
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 40),
    p=st.integers(1, 5),
    levels=st.integers(1, 5),
    dup=st.booleans(),
    const=st.booleans(),
    min_leaf=st.integers(1, 5),
    k=st.integers(1, 5),
    depth=st.integers(0, 6),
    seed=st.integers(0, 2**16),
    median=st.booleans(),
)
def test_fit_tree_matches_the_column_loop(
    n, p, levels, dup, const, min_leaf, k, depth, seed, median
):
    """The matrix scorer grows bit-identical trees to one-column-at-a-time
    scoring on tie-heavy data: integer-valued features and responses, a
    duplicated and a constant column, k <= p, mean or median leaves."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, p)).astype(np.float64)
    if dup and p > 1:
        x[:, -1] = x[:, 0]
    if const:
        x[:, rng.integers(p)] = 1.5
    ds = Dataset(rng.integers(0, 4, size=n).astype(np.float64), x)
    config = ForestConfig(
        subsample_size=n,
        features_per_split=min(k, p),
        max_depth=depth,
        n_trees=1,
        min_leaf=min(min_leaf, n),
        leaf_summary="median" if median else "mean",
    )
    rows = rng.permutation(n)
    fitted = fit_tree(ds, rows, config, tree_seed=seed)
    oracle = _column_loop_tree(ds, rows, config, tree_seed=seed)
    _assert_same_tree(fitted, oracle)


def _assert_same_tree(a: DecisionTree, b: DecisionTree) -> None:
    for name in _TREE_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_every_feature_as_candidate_draws_nothing(monkeypatch):
    """With k = p each node takes every feature without building a feature
    generator, and grows the tree that drawing all p features grows."""
    ds = gen_friedman1(300, 1.0, seed=3)
    config = ForestConfig(subsample_size=200, features_per_split=10, max_depth=6, n_trees=1)
    rows = subsample_indices(ds.n_rows, 200, seed=3, tree_id=0)
    drawn = _column_loop_tree(ds, rows, config, tree_seed=41)

    def no_draw(*key):
        raise AssertionError(f"rng_for{key} called with k = p")

    monkeypatch.setattr(_util, "rng_for", no_draw)
    fitted = fit_tree(ds, rows, config, tree_seed=41)
    assert fitted.n_internal > 20
    _assert_same_tree(fitted, drawn)


def test_fewer_features_than_p_draw_once_per_split_node(monkeypatch):
    """With k < p every node that searches for a split draws its candidates
    once, from a generator keyed on its own path."""
    # continuous features and responses: every node that searches splits
    ds = gen_friedman1(300, 1.0, seed=3)
    config = ForestConfig(subsample_size=200, features_per_split=3, max_depth=6, n_trees=1)
    rows = subsample_indices(ds.n_rows, 200, seed=3, tree_id=0)
    keys, rng_for = [], _util.rng_for

    def recording_rng_for(*key):
        keys.append(key)
        return rng_for(*key)

    monkeypatch.setattr(_util, "rng_for", recording_rng_for)
    fitted = fit_tree(ds, rows, config, tree_seed=41)
    assert fitted.n_internal > 20
    assert len(keys) == fitted.n_internal == len(set(keys))
    assert {(seed, stream) for seed, _, stream in keys} == {(41, _util.FEATURE_STREAM)}


@pytest.mark.parametrize(
    "k, digest",
    [
        (10, "3e5bb63b92cfbe7912c887033948b74b15aa582fc9a567f33db34f4aa5b4a530"),
        (3, "11801bada26715272f2f727b44ba3bd33aa53f01117d5df8549c4d6b83537738"),
    ],
)
def test_training_bytes_are_pinned(k, digest):
    """SHA-256 of the f64 file of two fixed forests (Friedman #1, whose last 5
    of 10 columns are noise; n=600, d=8, M=3, min_leaf=8), pinned so that any
    change to the split arithmetic fails here instead of drifting silently."""
    ds = gen_friedman1(1000, 1.0, seed=7)
    config = ForestConfig(
        subsample_size=600, features_per_split=k, max_depth=8, n_trees=3, min_leaf=8,
        seed=2024,
    )
    assert hashlib.sha256(encode(fit_forest(ds, config), "f64")).hexdigest() == digest


class TestTreeStructure:
    # Three leaves: node 0 -> (node 1, leaf 2), node 1 -> (leaf 0, leaf 1);
    # pointers to leaf j are stored as j + 2.
    VALID = {"features": [0, 0], "left": [1, 2], "right": [4, 3], "counts": [1, 1, 1]}

    @staticmethod
    def _tree(features, left, right, counts):
        return DecisionTree(
            split_features=np.array(features, dtype=np.int32),
            split_thresholds=np.array([0.5, 0.25]),
            children_left=np.array(left, dtype=np.int32),
            children_right=np.array(right, dtype=np.int32),
            leaf_values=np.array([1.0, 2.0, 3.0]),
            leaf_counts=np.array(counts, dtype=np.int32),
        )

    def test_valid_tree_accepted(self):
        tree = self._tree(**self.VALID)
        assert traverse(tree, np.array([0.1])) == 0
        assert traverse(tree, np.array([0.9])) == 2

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"left": [0, 2]}, "preorder"),  # self-loop at the root
            ({"right": [4, 0]}, "preorder"),  # back edge to the root
            ({"right": [5, 3]}, "below 2K-1"),  # past the last leaf
            ({"right": [4, 2]}, "exactly once"),  # leaf 0 twice, leaf 1 never
            ({"left": [1, 2, 3]}, "K-1"),  # one pointer too many
            ({"counts": [1, -1, 1]}, "non-negative"),
            ({"features": [0, -1]}, "non-negative column"),
        ],
    )
    def test_malformed_tree_rejected(self, change, match):
        with pytest.raises(ValueError, match=match):
            self._tree(**{**self.VALID, **change})

    def test_tree_needs_a_leaf_and_k_minus_one_splits(self):
        none = np.zeros(0, dtype=np.int32)
        with pytest.raises(ValueError, match="at least one leaf"):
            DecisionTree(
                split_features=none, split_thresholds=np.zeros(0), children_left=none,
                children_right=none, leaf_values=np.zeros(0), leaf_counts=none,
            )
        with pytest.raises(ValueError, match="3 internal nodes for 3 leaves"):
            self._tree(**{**self.VALID, "features": [0, 0, 0]})

    def test_forest_rejects_the_wrong_tree_count(self):
        tree = self._tree(**self.VALID)
        config = ForestConfig(subsample_size=3, features_per_split=1, max_depth=2, n_trees=2)
        with pytest.raises(ValueError, match="1 trees for config.n_trees=2"):
            Forest(
                trees=(tree,), config=config, dataset_rows=3,
                dataset_fingerprint=0, n_features=1,
            )

    def test_forest_rejects_leaf_counts_off_the_subsample(self):
        # leaves partition the subsample: counts summing to 3 of 5 rows used
        # to be accepted
        tree = self._tree(**self.VALID)

        def forest(n):
            config = ForestConfig(
                subsample_size=n, features_per_split=1, max_depth=2, n_trees=2
            )
            return Forest(
                trees=(tree, tree), config=config, dataset_rows=5,
                dataset_fingerprint=0, n_features=1,
            )

        forest(3)
        for n in (2, 5):
            message = f"tree 0's leaf counts sum to 3, not subsample_size {n}"
            with pytest.raises(ValueError, match=message):
                forest(n)

    def test_forest_rejects_split_feature_past_p(self):
        tree = self._tree(**{**self.VALID, "features": [0, 1]})
        config = ForestConfig(
            subsample_size=3, features_per_split=1, max_depth=2, n_trees=1
        )
        with pytest.raises(ValueError, match="splits feature 1"):
            Forest(
                trees=(tree,), config=config, dataset_rows=3,
                dataset_fingerprint=0, n_features=1,
            )


class TestTraverse:
    def test_left_on_below_threshold(self):
        tree = _stump(0.5, 2.0, 4.0)
        assert traverse(tree, np.array([0.3])) == 0

    def test_boundary_goes_left(self):
        tree = _stump(0.5, 2.0, 4.0)
        assert traverse(tree, np.array([0.5])) == 0
        assert traverse(tree, np.array([0.5000001])) == 1

    def test_single_leaf_tree(self):
        tree = _single_leaf(7.0)
        for x in (np.array([0.0]), np.array([123.0])):
            assert traverse(tree, x) == 0
        # no split fixes a width: any row, even an empty one, reaches the leaf
        np.testing.assert_array_equal(traverse_batch(tree, np.zeros((3, 0))), [0, 0, 0])

    def test_dimension_mismatch(self):
        tree = _stump(0.5, 2.0, 4.0)
        with pytest.raises(ValueError, match="features"):
            traverse(tree, np.zeros(0))
        with pytest.raises(ValueError, match="features"):
            traverse_batch(tree, np.zeros((3, 0)))

    def test_rejects_anything_but_one_row(self):
        # a matrix used to be read by its rows: row 0's leaf for the (3, 1)
        # matrix, leaf value 1.0 for the (2, 1) one
        tree = _stump(0.5, 1.0, 2.0)
        for x in (np.array([[0.9], [0.1], [0.2]]), np.zeros((2, 1)), np.zeros((1, 1)),
                  np.zeros((2, 2)), np.float64(0.9)):
            with pytest.raises(ValueError, match="one 1-D row"):
                traverse(tree, x)
            with pytest.raises(ValueError, match="one 1-D row"):
                tree_predict(tree, x)
        # a single-leaf tree takes a row of any width, but only one row
        leaf = _single_leaf(7.0)
        for x in (np.zeros(0), np.zeros(1), np.zeros(5)):
            assert traverse(leaf, x) == 0
            assert tree_predict(leaf, x) == 7.0
        for x in (np.zeros((2, 1)), np.float64(0.0)):
            with pytest.raises(ValueError, match="one 1-D row"):
                traverse(leaf, x)

    def test_batch_rejects_anything_but_rows(self):
        # a 3-D input used to fail to unpack its shape, or to be checked for
        # width along its second axis; a lone number passed as a one-feature row
        tree = _stump(0.5, 1.0, 2.0)
        for x in (np.zeros((2, 10, 10)), np.zeros((2, 3, 10)), np.float64(0.9)):
            message = f"traverse_batch expects p features per row, got an input of shape {x.shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                traverse_batch(tree, x)
        np.testing.assert_array_equal(traverse_batch(tree, np.array([0.9])), [1])

    def test_batch_matches_scalar(self):
        ds = gen_friedman1(50, 1.0, seed=8)
        config = ForestConfig(
            subsample_size=50, features_per_split=10, max_depth=4, n_trees=1
        )
        tree = fit_tree(ds, np.arange(50), config, tree_seed=3)
        batch = traverse_batch(tree, ds.features)
        scalar = np.array([traverse(tree, row) for row in ds.features])
        np.testing.assert_array_equal(batch, scalar)

    def test_total_on_extreme_inputs(self):
        # every finite vector reaches exactly one leaf, however far outside
        # the training range it lies
        ds = gen_friedman1(80, 1.0, seed=15)
        config = ForestConfig(
            subsample_size=80, features_per_split=10, max_depth=5, n_trees=1
        )
        tree = fit_tree(ds, np.arange(80), config, tree_seed=6)
        for value in (-1e300, -1.0, 0.0, 1.0, 1e300):
            leaf = traverse(tree, np.full(10, value))
            assert 0 <= leaf < tree.n_leaves


class TestTreePredict:
    def test_leaf_payload(self):
        tree = _stump(0.5, 2.0, 4.0)
        assert tree_predict(tree, np.array([0.2])) == 2.0
        assert tree_predict(tree, np.array([0.9])) == 4.0

    def test_single_leaf_mean(self):
        ds = Dataset(np.array([1.0, 2.0, 3.0]), np.array([[0.1], [0.5], [0.9]]))
        config = ForestConfig(
            subsample_size=3, features_per_split=1, max_depth=0, n_trees=1
        )
        tree = fit_tree(ds, np.arange(3), config, tree_seed=0)
        assert tree_predict(tree, np.array([42.0])) == 2.0


class TestFitForest:
    def test_single_tree_forest_equals_tree(self):
        ds = gen_friedman1(60, 1.0, seed=0)
        config = ForestConfig(
            subsample_size=60, features_per_split=10, max_depth=3, n_trees=1, seed=2
        )
        forest = fit_forest(ds, config)
        for row in ds.features[:10]:
            assert forest_predict(forest, row) == tree_predict(forest.trees[0], row)

    def test_deterministic(self):
        ds = gen_friedman1(80, 1.0, seed=1)
        config = ForestConfig(
            subsample_size=50, features_per_split=4, max_depth=3, n_trees=5, seed=7
        )
        a = fit_forest(ds, config)
        b = fit_forest(ds, config)
        for ta, tb in zip(a.trees, b.trees):
            np.testing.assert_array_equal(ta.split_features, tb.split_features)
            np.testing.assert_array_equal(ta.split_thresholds, tb.split_thresholds)
            np.testing.assert_array_equal(ta.leaf_values, tb.leaf_values)
        for ra, rb in zip(rederive_subsamples(a), rederive_subsamples(b)):
            np.testing.assert_array_equal(ra, rb)

    def test_trees_are_fitted_on_the_calling_thread(self, monkeypatch):
        # the split search holds the interpreter lock: worker threads only
        # slowed the fit
        ds = gen_friedman1(80, 1.0, seed=1)
        config = ForestConfig(
            subsample_size=40, features_per_split=4, max_depth=3, n_trees=6, seed=3
        )
        threads = []
        fit_tree = forest_module.fit_tree

        def recording_fit_tree(*args):
            threads.append(threading.get_ident())
            return fit_tree(*args)

        monkeypatch.setattr(forest_module, "fit_tree", recording_fit_tree)
        fit_forest(ds, config)
        assert threads == [threading.get_ident()] * config.n_trees

    def test_surrogates_are_fitted_on_the_calling_thread(self, monkeypatch):
        # squash_forest runs no pool of its own; callers who want one map
        # fit_surrogate themselves (README)
        ds = gen_friedman1(80, 1.0, seed=1)
        config = ForestConfig(
            subsample_size=40, features_per_split=4, max_depth=3, n_trees=6, seed=3
        )
        forest = fit_forest(ds, config)
        calls = []
        fit_surrogate = surrogate_module.fit_surrogate

        def recording_fit_surrogate(tree, *args):
            calls.append((threading.get_ident(), tree))
            return fit_surrogate(tree, *args)

        monkeypatch.setattr(surrogate_module, "fit_surrogate", recording_fit_surrogate)
        squash_forest(forest, ds, MlrFitConfig())
        assert [thread for thread, _ in calls] == [threading.get_ident()] * config.n_trees
        assert all(tree is fitted for (_, tree), fitted in zip(calls, forest.trees))

    def test_noiseless_axis_leaf_values(self):
        # per-tree oracle: every leaf must carry one of the generating values
        ds = gen_axis_partition(400, [(0, 0.5)], [2.0, 4.0], seed=4, p=2)
        config = ForestConfig(
            subsample_size=200, features_per_split=2, max_depth=3, n_trees=50, seed=0
        )
        forest = fit_forest(ds, config)
        for tree in forest.trees:
            assert set(tree.leaf_values.tolist()) <= {2.0, 4.0}

    def test_config_validated_against_dataset(self):
        ds = gen_friedman1(10, 0.0, seed=0)
        with pytest.raises(ValueError, match="subsample_size"):
            fit_forest(
                ds,
                ForestConfig(
                    subsample_size=11, features_per_split=2, max_depth=1, n_trees=1
                ),
            )
        with pytest.raises(ValueError, match="features_per_split"):
            fit_forest(
                ds,
                ForestConfig(
                    subsample_size=5, features_per_split=11, max_depth=1, n_trees=1
                ),
            )

    def test_training_rmse_zero_on_noiseless_axis(self):
        ds = gen_axis_partition(300, [(0, 0.4), (1, 0.6)], [1.0, 2.0, 3.0, 4.0], seed=6)
        config = ForestConfig(
            subsample_size=300, features_per_split=2, max_depth=4, n_trees=3, seed=1
        )
        forest = fit_forest(ds, config)
        pred = forest_predict_batch(forest, ds.features)
        assert np.sqrt(np.mean((pred - ds.responses) ** 2)) == 0.0


class TestForestPredict:
    def test_mean_of_two_trees(self):
        forest = _manual_forest([_single_leaf(2.0), _single_leaf(4.0)])
        assert forest_predict(forest, np.array([0.0])) == 3.0

    def test_overflowing_sum_of_finite_values_stays_finite(self):
        # 1.5e308 + 1.5e308 overflows; the mean of the two does not, and the
        # forest used to predict inf
        forest = _manual_forest([_single_leaf(1.5e308), _single_leaf(1.5e308)])
        rows = np.array([[0.0], [1.0]])
        np.testing.assert_array_equal(forest_predict_batch(forest, rows), 1.5e308)
        assert forest_predict(forest, rows[0]) == 1.5e308
        # three times the largest float / 3 rounds past it: the mean is that float
        top = np.finfo(np.float64).max
        forest = _manual_forest([_single_leaf(top)] * 3)
        np.testing.assert_array_equal(forest_predict_batch(forest, rows), top)
        assert forest_predict(forest, rows[0]) == top

    def test_mean_is_bit_equal_to_np_mean(self):
        ds = gen_friedman1(200, 1.0, seed=12)
        config = ForestConfig(
            subsample_size=100, features_per_split=5, max_depth=4, n_trees=13, seed=3
        )
        forest = fit_forest(ds, config)
        per_tree = np.array([[tree_predict(t, row) for row in ds.features]
                             for t in forest.trees])
        batch = forest_predict_batch(forest, ds.features)
        np.testing.assert_array_equal(batch, np.mean(per_tree, axis=0))
        # np.mean of one (M,) column would sum it pairwise; a single row adds
        # the trees in order, as the (M, N) mean does
        for row, want in zip(ds.features[:10], batch):
            assert forest_predict(forest, row) == want

    def test_recomputation_oracle(self):
        ds = gen_friedman1(100, 1.0, seed=9)
        config = ForestConfig(
            subsample_size=60, features_per_split=5, max_depth=3, n_trees=10, seed=4
        )
        forest = fit_forest(ds, config)
        for row in ds.features[:20]:
            independent = np.mean([tree_predict(t, row) for t in forest.trees])
            assert forest_predict(forest, row) == pytest.approx(independent, abs=1e-12)

    def test_batch_matches_scalar(self):
        ds = gen_friedman1(50, 1.0, seed=10)
        config = ForestConfig(
            subsample_size=50, features_per_split=10, max_depth=3, n_trees=4, seed=0
        )
        forest = fit_forest(ds, config)
        batch = forest_predict_batch(forest, ds.features)
        scalar = np.array([forest_predict(forest, row) for row in ds.features])
        np.testing.assert_allclose(batch, scalar, atol=0, rtol=0)

    def test_rejects_wrong_width(self):
        # Trees check only the features they split on: neither a stump forest
        # nor a forest that never splits the last column can tell a short row.
        ds = gen_friedman1(200, 1.0, seed=11)
        for depth in (0, 2):
            config = ForestConfig(
                subsample_size=100, features_per_split=10, max_depth=depth,
                n_trees=3, seed=2,
            )
            forest = fit_forest(ds, config)
            assert all(9 not in t.split_features for t in forest.trees)
            for width in (9, 11):
                with pytest.raises(ValueError, match="forest expects 10"):
                    forest_predict_batch(forest, np.zeros((4, width)))
                with pytest.raises(ValueError, match="forest expects 10"):
                    forest_predict(forest, np.zeros(width))

    def test_single_row_rejects_anything_but_one_row(self):
        # a (p, p) matrix used to fail in numpy's truth-value check; a (1, p)
        # one or a lone number is no row either
        forest = _mixed_forest()
        for x in (np.zeros((3, 3)), np.zeros((1, 3)), np.zeros((3, 1)), np.float64(0.0)):
            with pytest.raises(ValueError, match="forest expects 3 features in one row"):
                forest_predict(forest, x)
        assert forest_predict(forest, [0.0, 0.0, 0.0]) == forest_predict(
            forest, np.zeros(3, dtype=np.float32)
        )


def _chain(thresholds, features):
    """A tree whose internal node i splits ``features[i]`` at
    ``thresholds[i]`` with a leaf on its left and node i+1 on its right: one
    path as deep as it has internal nodes. Leaf j holds the value j."""
    k = len(thresholds) + 1
    right = list(range(1, k - 1)) + [2 * k - 2]
    return DecisionTree(
        split_features=np.array(features, dtype=np.int32),
        split_thresholds=np.array(thresholds, dtype=np.float64),
        children_left=np.arange(k - 1, 2 * k - 2, dtype=np.int32),
        children_right=np.array(right, dtype=np.int32),
        leaf_values=np.arange(k, dtype=np.float64),
        leaf_counts=np.ones(k, dtype=np.int32),
    )


def _mixed_forest():
    """Single-leaf trees beside a depth-11 chain and a stump, in a forest
    whose config claims max_depth 1; the chain's thresholds include 0.0,
    -0.0 and repeats, and it splits all three features."""
    chain = _chain(
        [0.5, 0.0, -0.0, 0.25, 0.25, -1.0, 2.0, 0.75, 1e300, -1e300, 0.5],
        [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1],
    )
    stump = DecisionTree(
        split_features=np.array([2], dtype=np.int32),
        split_thresholds=np.array([0.3]),
        children_left=np.array([1], dtype=np.int32),
        children_right=np.array([2], dtype=np.int32),
        leaf_values=np.array([-3.0, 5.0]),
        leaf_counts=np.array([6, 6], dtype=np.int32),
    )
    trees = (_single_leaf(7.0, 12), chain, _single_leaf(-2.5, 12), stump)
    config = ForestConfig(
        subsample_size=12, features_per_split=1, max_depth=1, n_trees=len(trees)
    )
    return Forest(
        trees=trees, config=config, dataset_rows=12, dataset_fingerprint=0, n_features=3
    )


def _edge_rows(trees, p, seed):
    """Rows of width p with each split's feature at its threshold in turn,
    plus +-0.0, +-inf and NaN in every column, among random rows."""
    rng = np.random.default_rng(seed)
    rows = [rng.uniform(-1.0, 2.0, p) for _ in range(20)]
    for tree in trees:
        for f, t in zip(tree.split_features, tree.split_thresholds):
            row = rng.uniform(-1.0, 2.0, p)
            row[f] = t
            rows.append(row)
    for value in (0.0, -0.0, np.inf, -np.inf, np.nan):
        rows.append(np.full(p, value))
        for f in range(p):
            row = rng.uniform(-1.0, 2.0, p)
            row[f] = value
            rows.append(row)
    return np.array(rows)


def _workload_forest(noise_columns, k, depth, m):
    """A forest of the benchmark's shape: Friedman #1 with noise columns, a
    1000-row subsample, k split candidates, depth and M trees."""
    ds = gen_friedman1(1500, 1.0, seed=depth + m)
    if noise_columns:
        noise = np.random.default_rng(m).random((ds.n_rows, noise_columns))
        ds = Dataset(responses=ds.responses, features=np.hstack([ds.features, noise]))
    config = ForestConfig(
        subsample_size=1000, features_per_split=k, max_depth=depth, n_trees=m,
        min_leaf=8, seed=m,
    )
    return fit_forest(ds, config)


# (noise columns, split candidates, depth, trees) of pilot_d8, wide_p30, serve_d5
WORKLOAD_SHAPES = [(0, 10, 8, 12), (20, 30, 8, 8), (0, 10, 5, 50)]


def _assert_descent_matches_walk(forest, x):
    """The batch descent against the single-row walk: forecasts equal the
    np.mean of per-tree tree_predict, and leaves equal traverse, row by row."""
    per_tree = np.array(
        [[tree_predict(t, row) for row in x] for t in forest.trees]
    ).reshape(forest.n_trees, x.shape[0])
    got = forest_predict_batch(forest, x)
    assert got.shape == (x.shape[0],)
    np.testing.assert_array_equal(got, np.mean(per_tree, axis=0))
    for tree in forest.trees:
        leaves = traverse_batch(tree, x)
        assert leaves.shape == (x.shape[0],)
        np.testing.assert_array_equal(leaves, [traverse(tree, row) for row in x])


class TestBatchDescent:
    @pytest.mark.parametrize("depth", range(9))
    def test_fitted_forests_match_the_walk(self, depth):
        ds = gen_friedman1(300, 1.0, seed=20 + depth)
        config = ForestConfig(
            subsample_size=200, features_per_split=4, max_depth=depth, n_trees=5,
            seed=depth,
        )
        forest = fit_forest(ds, config)
        _assert_descent_matches_walk(forest, ds.features)
        _assert_descent_matches_walk(forest, _edge_rows(forest.trees, 10, seed=depth))

    def test_chain_deeper_than_config_and_single_leaves(self):
        forest = _mixed_forest()
        assert len(forest._flat.live) == 11 > forest.config.max_depth
        _assert_descent_matches_walk(forest, _edge_rows(forest.trees, 3, seed=1))

    def test_only_trees_deeper_than_the_step_move(self):
        # the chain descends first; the stump takes one step and the single
        # leaves none, then the slab is put back in tree order
        forest = _mixed_forest()
        assert forest._flat.live == [2] + [1] * 10
        assert forest._flat.unsort is not None
        x = _edge_rows(forest.trees, 3, seed=8)
        _assert_descent_matches_walk(dataclasses.replace(forest, trees=forest.trees[::-1]), x)
        # the mean adds in tree order, (1 - 2**53) + 2**53 = 1, where the
        # descent's order would give (2**53 + 1) - 2**53 = 0
        big = 2.0**53
        trees = [_single_leaf(1.0, 2), _single_leaf(-big, 2), _stump(0.5, big, big)]
        uneven = _manual_forest(trees, n=2)
        assert uneven._flat.unsort is not None
        np.testing.assert_array_equal(forest_predict_batch(uneven, [[0.0], [1.0]]), 1 / 3)

    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    def test_workload_shaped_trees_keep_their_order(self, shape):
        forest = _workload_forest(*shape)
        assert forest._flat.unsort is None
        assert forest._flat.live == [forest.n_trees] * shape[2]

    def test_non_finite_thresholds_stay_splits(self):
        # a lone tree is not checked for finite thresholds: a +inf split is
        # still a split, not a leaf, and NaN sends every row right
        tree = _chain([np.inf, np.nan, 0.5], [0, 1, 0])
        x = _edge_rows([tree], 2, seed=2)
        np.testing.assert_array_equal(
            traverse_batch(tree, x), [traverse(tree, row) for row in x]
        )

    def test_layout_of_x_does_not_matter(self):
        forest = _mixed_forest()
        x = _edge_rows(forest.trees, 3, seed=3)
        wide = np.full((2 * x.shape[0], 2 * forest.n_features), 99.0)
        wide[::2, ::2] = x
        for layout in (np.asfortranarray(x), wide[::2, ::2]):
            assert not layout.flags.c_contiguous
            _assert_descent_matches_walk(forest, layout)

    @pytest.mark.parametrize("cells", [1, 3, 8, 64])
    def test_row_counts_around_the_block(self, monkeypatch, cells):
        # a block of max(1, cells // M) rows: one row per block when the
        # cells do not cover the trees, and a ragged last block otherwise
        monkeypatch.setattr(forest_module, "_CELLS", cells)
        forest = _mixed_forest()
        x = _edge_rows(forest.trees, 3, seed=4)
        for n in (0, 1, 2, 15, 16, 17, x.shape[0]):
            _assert_descent_matches_walk(forest, x[:n])

    def test_memory_does_not_grow_as_rows_times_trees(self):
        # 50 trees x 50k rows: the per-tree (M, N) stack alone took 20 MB
        trees = [_stump(t, -t, t) for t in np.linspace(0.1, 0.9, 50)]
        forest = _manual_forest(trees, n=2)
        x = np.random.default_rng(5).random((50_000, 1))
        tracemalloc.start()
        try:
            out = forest_predict_batch(forest, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # the (N,) output is 400 kB
        np.testing.assert_array_equal(out[:100], forest_predict_batch(forest, x[:100]))
        _assert_descent_matches_walk(forest, x[:100])

    def test_flat_arrays_are_built_lazily_and_never_stored(self, monkeypatch):
        ds = gen_friedman1(200, 1.0, seed=6)
        config = ForestConfig(
            subsample_size=100, features_per_split=5, max_depth=4, n_trees=6, seed=6
        )
        blob = encode(fit_forest(ds, config))
        model = decode(blob)
        # decode alone is what loading times
        assert "_flat" not in vars(model) and "_nodes" not in vars(model)

        def no_kernel(*args):
            raise AssertionError("single rows must not use the batch descent")

        monkeypatch.setattr(forest_module, "_descend_blocks", no_kernel)
        want = [forest_predict(model, row) for row in ds.features[:5]]
        assert "_nodes" in vars(model) and "_flat" not in vars(model)
        assert encode(model) == blob
        assert model == dataclasses.replace(model)
        monkeypatch.undo()

        np.testing.assert_array_equal(forest_predict_batch(model, ds.features[:5]), want)
        assert "_flat" in vars(model)
        assert encode(model) == blob
        assert model == dataclasses.replace(model)
        assert [f.name for f in dataclasses.fields(model)] == [
            "trees", "config", "dataset_rows", "dataset_fingerprint", "n_features"
        ]


class TestSingleRowWalk:
    @staticmethod
    def _assert_walk_matches_np_mean(forest, x):
        # np.mean over axis 0 of the (M, N) per-tree values adds the trees in
        # order, as the walk does; np.mean of one row's (M,) values would sum
        # them pairwise
        per_tree = np.array([[tree_predict(t, row) for row in x] for t in forest.trees])
        for row, want in zip(x, np.mean(per_tree, axis=0)):
            assert forest_predict(forest, row) == want

    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    def test_workload_shaped_forests_match_per_tree_predictions(self, shape):
        forest = _workload_forest(*shape)
        rows = _edge_rows(forest.trees[:3], forest.n_features, seed=shape[-1])
        self._assert_walk_matches_np_mean(forest, rows)

    def test_chain_and_single_leaves(self):
        forest = _mixed_forest()
        self._assert_walk_matches_np_mean(forest, _edge_rows(forest.trees, 3, seed=7))

    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES + [None])
    def test_single_rows_equal_their_batch_rows(self, shape):
        # Both paths add the trees in order, also for a batch of one row and
        # a row alone in its last block: numpy would sum either pairwise, and
        # 127 of 200 rows of a 50-tree forest used to differ in the last bits.
        forest = _mixed_forest() if shape is None else _workload_forest(*shape)
        block = forest_module._CELLS // forest.n_trees
        edges = _edge_rows(forest.trees[:3], forest.n_features, seed=41)
        # enough random rows that the last one sits alone in its block
        n = block + (1 - len(edges)) % block
        x = np.random.default_rng(40).uniform(-0.2, 1.2, (n, forest.n_features))
        x = np.vstack([edges, x])
        assert x.shape[0] % block == 1
        batch = forest_predict_batch(forest, x)
        for i, row in enumerate(x):
            assert forest_predict(forest, row) == batch[i]
        for i in (0, x.shape[0] - 1):
            assert forest_predict_batch(forest, x[i : i + 1])[0] == batch[i]

    def test_nodes_take_at_most_eight_times_the_file(self):
        forest = _workload_forest(*WORKLOAD_SHAPES[2])
        tracemalloc.start()
        try:
            nodes = forest._nodes
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(nodes.nodes) == sum(2 * t.n_leaves - 1 for t in forest.trees)
        assert held <= 8 * len(encode(forest, "f64"))


class TestConfigValidation:
    def test_field_bounds(self):
        with pytest.raises(ValueError):
            ForestConfig(subsample_size=0, features_per_split=1, max_depth=1, n_trees=1)
        with pytest.raises(ValueError):
            ForestConfig(subsample_size=1, features_per_split=0, max_depth=1, n_trees=1)
        with pytest.raises(ValueError):
            ForestConfig(subsample_size=1, features_per_split=1, max_depth=-1, n_trees=1)
        with pytest.raises(ValueError):
            ForestConfig(subsample_size=1, features_per_split=1, max_depth=1, n_trees=0)
        with pytest.raises(ValueError):
            ForestConfig(
                subsample_size=1, features_per_split=1, max_depth=1, n_trees=1, min_leaf=0
            )
        with pytest.raises(ValueError):
            ForestConfig(
                subsample_size=1,
                features_per_split=1,
                max_depth=1,
                n_trees=1,
                leaf_summary="mode",
            )
