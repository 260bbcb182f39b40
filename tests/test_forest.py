"""Tests for CART tree fitting, traversal, and the forest ensemble."""

import numpy as np
import pytest

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
    subsample,
    traverse,
    traverse_batch,
    tree_predict,
)


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


class TestSubsample:
    def test_full_sample_is_every_row(self):
        ds = gen_friedman1(17, 0.0, seed=0)
        rows = subsample(ds, 17, seed=5, tree_id=0)
        assert sorted(rows) == list(range(17))

    def test_distinct_and_in_range(self):
        ds = gen_friedman1(10, 0.0, seed=0)
        rows = subsample(ds, 3, seed=1, tree_id=2)
        assert len(rows) == 3
        assert len(set(rows.tolist())) == 3
        assert all(0 <= r < 10 for r in rows)

    def test_oversized_draw_rejected(self):
        ds = gen_friedman1(5, 0.0, seed=0)
        with pytest.raises(ValueError, match="cannot draw"):
            subsample(ds, 6, seed=0, tree_id=0)

    def test_deterministic_per_key(self):
        ds = gen_friedman1(50, 0.0, seed=0)
        a = subsample(ds, 10, seed=3, tree_id=7)
        b = subsample(ds, 10, seed=3, tree_id=7)
        c = subsample(ds, 10, seed=3, tree_id=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniformity(self):
        # binomial oracle over 10000 single-row draws from 4 rows
        ds = gen_friedman1(4, 0.0, seed=0)
        draws = np.array(
            [subsample(ds, 1, seed=0, tree_id=t)[0] for t in range(10_000)]
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
        rows = subsample(ds, 80, seed=0, tree_id=0)
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

    def test_dimension_mismatch(self):
        tree = _stump(0.5, 2.0, 4.0)
        with pytest.raises(ValueError, match="features"):
            traverse(tree, np.zeros(0))
        with pytest.raises(ValueError, match="features"):
            traverse_batch(tree, np.zeros((3, 0)))

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

    def test_thread_count_does_not_change_result(self):
        ds = gen_friedman1(80, 1.0, seed=1)
        config = ForestConfig(
            subsample_size=40, features_per_split=4, max_depth=3, n_trees=6, seed=3
        )
        a = fit_forest(ds, config, n_jobs=1)
        b = fit_forest(ds, config, n_jobs=4)
        for ta, tb in zip(a.trees, b.trees):
            np.testing.assert_array_equal(ta.split_thresholds, tb.split_thresholds)
            np.testing.assert_array_equal(ta.leaf_values, tb.leaf_values)

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
