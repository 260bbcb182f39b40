"""Tests for leaf-dataset extraction, surrogate fitting, and squashing."""

import numpy as np
import pytest

from rfsquash.codec import decode, encode
from rfsquash.data import gen_axis_partition, gen_friedman1
from rfsquash.errors import DataError
from rfsquash.forest import (
    ForestConfig,
    fit_forest,
    fit_tree,
    forest_predict,
    forest_predict_batch,
    traverse_batch,
)
from rfsquash.mlr import MlrFitConfig, MlrModel, class_probability_matrix
from rfsquash.surrogate import (
    _CELLS,
    SurrogateForest,
    TreeSurrogate,
    extract_leaf_dataset,
    fit_surrogate,
    squash_forest,
    surrogate_forest_predict,
    surrogate_forest_predict_batch,
    surrogate_predict,
    surrogate_predict_batch,
)


def _fitted_tree(dataset, depth, k=None, min_leaf=1, seed=0):
    config = ForestConfig(
        subsample_size=dataset.n_rows,
        features_per_split=k or dataset.n_features,
        max_depth=depth,
        n_trees=1,
        min_leaf=min_leaf,
        seed=seed,
    )
    rows = np.arange(dataset.n_rows)
    return fit_tree(dataset, rows, config, tree_seed=seed), rows


class TestExtractLeafDataset:
    def test_single_leaf_tree_all_zero_labels(self):
        ds = gen_friedman1(30, 1.0, seed=0)
        tree, rows = _fitted_tree(ds, depth=0)
        leaf_data = extract_leaf_dataset(tree, ds, rows)
        np.testing.assert_array_equal(leaf_data.labels, 0)
        assert leaf_data.n_leaves == 1

    def test_depth_one_labels_are_side_indicator(self):
        ds = gen_axis_partition(200, [(0, 0.5)], [2.0, 4.0], seed=1)
        tree, rows = _fitted_tree(ds, depth=1)
        leaf_data = extract_leaf_dataset(tree, ds, rows)
        expected = (ds.features[:, 0] > tree.split_thresholds[0]).astype(int)
        np.testing.assert_array_equal(leaf_data.labels, expected)

    def test_histogram_matches_stored_counts(self):
        ds = gen_friedman1(150, 1.0, seed=2)
        tree, rows = _fitted_tree(ds, depth=4, min_leaf=3)
        leaf_data = extract_leaf_dataset(tree, ds, rows)
        np.testing.assert_array_equal(
            np.bincount(leaf_data.labels, minlength=tree.n_leaves), tree.leaf_counts
        )

    def test_wrong_row_count_rejected(self):
        ds = gen_friedman1(40, 1.0, seed=3)
        tree, rows = _fitted_tree(ds, depth=2)
        with pytest.raises(DataError, match="fitted on"):
            extract_leaf_dataset(tree, ds, rows[:-1])

    def test_wrong_rows_same_count_rejected(self):
        ds = gen_friedman1(60, 1.0, seed=4)
        config = ForestConfig(
            subsample_size=30, features_per_split=10, max_depth=3, n_trees=1
        )
        rows = np.arange(30)
        tree = fit_tree(ds, rows, config, tree_seed=1)
        other = np.arange(30, 60)
        with pytest.raises(DataError, match="histogram"):
            extract_leaf_dataset(tree, ds, other)


class TestFitSurrogate:
    def test_single_leaf_constant_in_both_modes(self):
        ds = gen_friedman1(20, 0.0, seed=5)
        tree, rows = _fitted_tree(ds, depth=0)
        for mode in ("argmax", "expectation"):
            surrogate = fit_surrogate(
                tree, ds, rows, MlrFitConfig(), prediction_mode=mode
            )
            assert surrogate.model is None
            value = tree.leaf_values[0]
            for x in ds.features[:5]:
                assert surrogate_predict(surrogate, x) == value

    def test_depth_one_separable_recovery(self):
        ds = gen_axis_partition(400, [(0, 0.5)], [2.0, 4.0], seed=6)
        keep = np.abs(ds.features[:, 0] - 0.5) >= 0.01
        ds = ds.subset(np.nonzero(keep)[0])
        tree, rows = _fitted_tree(ds, depth=1)
        surrogate = fit_surrogate(
            tree, ds, rows, MlrFitConfig(l2_penalty=1e-6, max_iterations=200)
        )
        routed = traverse_batch(tree, ds.features)
        probs = class_probability_matrix(surrogate.model, ds.features)
        agreement = np.mean(np.argmax(probs, axis=1) == routed)
        assert agreement == 1.0

    def test_depth_two_xor_agreement_measured(self):
        # Four distinct-valued quadrants: the surrogate is an approximation,
        # not a copy; record the agreement and require only sanity bounds.
        ds = gen_axis_partition(
            500, [(0, 0.5), (1, 0.5)], [1.0, 2.0, 3.0, 4.0], seed=7
        )
        tree, rows = _fitted_tree(ds, depth=2)
        assert tree.n_leaves == 4
        surrogate = fit_surrogate(
            tree, ds, rows, MlrFitConfig(l2_penalty=1e-6, max_iterations=300)
        )
        routed = traverse_batch(tree, ds.features)
        predicted = np.argmax(
            class_probability_matrix(surrogate.model, ds.features), axis=1
        )
        agreement = float(np.mean(predicted == routed))
        print(f"depth-2 quadrant agreement: {agreement:.4f}")
        assert 0.5 <= agreement <= 1.0

    def test_leaf_values_copied_verbatim(self):
        ds = gen_friedman1(80, 1.0, seed=8)
        tree, rows = _fitted_tree(ds, depth=3)
        surrogate = fit_surrogate(tree, ds, rows, MlrFitConfig())
        np.testing.assert_array_equal(surrogate.leaf_values, tree.leaf_values)

    def test_median_summary_rides_through_squash(self):
        ds = gen_friedman1(200, 1.0, seed=21)
        config = ForestConfig(
            subsample_size=120,
            features_per_split=10,
            max_depth=2,
            n_trees=3,
            min_leaf=5,
            leaf_summary="median",
            seed=2,
        )
        forest = fit_forest(ds, config)
        squashed = squash_forest(forest, ds, MlrFitConfig())
        for tree, surrogate in zip(forest.trees, squashed.surrogates):
            np.testing.assert_array_equal(surrogate.leaf_values, tree.leaf_values)
            # every leaf value really is a median of some subsample responses
            for value in tree.leaf_values:
                assert value in ds.responses or np.isclose(
                    value * 2,
                    np.add.outer(ds.responses, ds.responses),
                ).any()

    def test_parameter_count_independent_of_sample_size(self):
        sizes = {}
        for n in (500, 5000):
            ds = gen_axis_partition(n, [(0, 0.5)], [2.0, 4.0], seed=9)
            tree, rows = _fitted_tree(ds, depth=1)
            surrogate = fit_surrogate(tree, ds, rows, MlrFitConfig())
            model = surrogate.model
            sizes[n] = (
                model.intercepts.size + model.coefficients.size,
                surrogate.leaf_values.size,
            )
        assert sizes[500] == sizes[5000]
        k, p = 2, 1
        assert sizes[500][0] == (k - 1) * (p + 1)


class TestSurrogatePredict:
    def test_expectation_weighted_mean(self):
        # zero model over K=2 gives theta = (0.5, 0.5)
        surrogate = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.zeros((1, 1))),
            leaf_values=np.array([2.0, 4.0]),
            prediction_mode="expectation",
        )
        assert surrogate_predict(surrogate, np.array([0.7])) == pytest.approx(3.0)

    def test_argmax_takes_most_probable_leaf(self):
        # intercept ln 9 puts theta = (0.9, 0.1)
        surrogate = TreeSurrogate(
            model=MlrModel(np.array([np.log(9.0)]), np.zeros((1, 1))),
            leaf_values=np.array([2.0, 4.0]),
            prediction_mode="argmax",
        )
        assert surrogate_predict(surrogate, np.array([0.0])) == 2.0

    def test_expectation_is_convex_combination(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            p = int(rng.integers(1, 4))
            surrogate = TreeSurrogate(
                model=MlrModel(
                    rng.normal(scale=3, size=k - 1), rng.normal(scale=3, size=(k - 1, p))
                ),
                leaf_values=rng.normal(scale=10, size=k),
                prediction_mode="expectation",
            )
            x = rng.normal(size=p)
            value = surrogate_predict(surrogate, x)
            assert surrogate.leaf_values.min() - 1e-12 <= value
            assert value <= surrogate.leaf_values.max() + 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        surrogate = TreeSurrogate(
            model=MlrModel(rng.normal(size=2), rng.normal(size=(2, 3))),
            leaf_values=np.array([1.0, 5.0, 9.0]),
            prediction_mode="expectation",
        )
        x = rng.normal(size=(20, 3))
        batch = surrogate_predict_batch(surrogate, x)
        scalar = np.array([surrogate_predict(surrogate, row) for row in x])
        np.testing.assert_allclose(batch, scalar, atol=0)

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_overflowing_logit_routes_to_its_leaf(self, mode):
        # 1e300 * 1e10 overflows: the row at +1e10 belongs wholly to leaf 0,
        # the row at -1e10 to the base leaf
        surrogate = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.array([[1e300]])),
            leaf_values=np.array([1.0, 2.0]),
            prediction_mode=mode,
        )
        predictions = surrogate_predict_batch(surrogate, np.array([[1e10], [-1e10]]))
        np.testing.assert_array_equal(predictions, [1.0, 2.0])

    def test_overflowing_weighted_leaf_values_stay_finite(self):
        # each leaf gets probability 1/2; e * v used to be summed to 3e308
        # before the division by the softmax total, giving inf
        surrogate = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.zeros((1, 1))),
            leaf_values=np.array([1.5e308, 1.5e308]),
            prediction_mode="expectation",
        )
        rows = np.array([[0.5], [-2.0]])
        np.testing.assert_array_equal(surrogate_predict_batch(surrogate, rows), 1.5e308)
        assert surrogate_predict(surrogate, rows[0]) == 1.5e308

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="prediction_mode"):
            TreeSurrogate(
                model=None, leaf_values=np.array([1.0]), prediction_mode="soft"
            )

    def test_forest_rejects_mixed_modes(self):
        surrogates = tuple(
            TreeSurrogate(model=None, leaf_values=np.array([1.0]), prediction_mode=mode)
            for mode in ("argmax", "expectation")
        )
        config = ForestConfig(
            subsample_size=1, features_per_split=1, max_depth=0, n_trees=2
        )
        with pytest.raises(ValueError, match="mode"):
            SurrogateForest(
                surrogates=surrogates, config=config, prediction_mode="argmax",
                n_features=1,
            )


class TestSquashForest:
    def _forest(self, n=300, depth=2, m=3, seed=0):
        ds = gen_friedman1(n, 1.0, seed=seed)
        config = ForestConfig(
            subsample_size=n // 2,
            features_per_split=10,
            max_depth=depth,
            n_trees=m,
            min_leaf=5,
            seed=seed,
        )
        return ds, fit_forest(ds, config)

    def test_single_tree_equivalence(self):
        ds, forest = self._forest(m=1)
        sf = squash_forest(forest, ds, MlrFitConfig())
        for x in ds.features[:10]:
            assert surrogate_forest_predict(sf, x) == surrogate_predict(
                sf.surrogates[0], x
            )

    def test_leaf_counts_echo_source_trees(self):
        ds, forest = self._forest(m=5)
        sf = squash_forest(forest, ds, MlrFitConfig())
        for tree, surrogate in zip(forest.trees, sf.surrogates):
            assert surrogate.n_leaves == tree.n_leaves

    def test_refit_is_reproducible(self):
        ds, forest = self._forest(m=3)
        a = squash_forest(forest, ds, MlrFitConfig(l2_penalty=1e-4))
        b = squash_forest(forest, ds, MlrFitConfig(l2_penalty=1e-4))
        for sa, sb in zip(a.surrogates, b.surrogates):
            diff = max(
                np.abs(sa.model.intercepts - sb.model.intercepts).max(),
                np.abs(sa.model.coefficients - sb.model.coefficients).max(),
            )
            assert diff < 1e-6

    def test_thread_count_does_not_change_result(self):
        ds, forest = self._forest(m=4)
        a = squash_forest(forest, ds, MlrFitConfig(), n_jobs=1)
        b = squash_forest(forest, ds, MlrFitConfig(), n_jobs=4)
        for sa, sb in zip(a.surrogates, b.surrogates):
            np.testing.assert_array_equal(sa.model.intercepts, sb.model.intercepts)
            np.testing.assert_array_equal(sa.model.coefficients, sb.model.coefficients)

    def test_fingerprint_mismatch_rejected(self):
        ds, forest = self._forest()
        other = gen_friedman1(300, 1.0, seed=99)
        with pytest.raises(DataError, match="fingerprint"):
            squash_forest(forest, other, MlrFitConfig())

    def test_row_count_mismatch_rejected(self):
        ds, forest = self._forest()
        other = gen_friedman1(100, 1.0, seed=0)
        with pytest.raises(DataError, match="rows"):
            squash_forest(forest, other, MlrFitConfig())

    def test_decoded_forest_squashes_identically(self):
        ds, forest = self._forest(m=3)
        direct = squash_forest(forest, ds, MlrFitConfig())
        derived = squash_forest(decode(encode(forest)), ds, MlrFitConfig())
        for sa, sb in zip(direct.surrogates, derived.surrogates):
            np.testing.assert_array_equal(sa.model.intercepts, sb.model.intercepts)
            np.testing.assert_array_equal(sa.model.coefficients, sb.model.coefficients)

    def test_prediction_mode_recorded(self):
        ds, forest = self._forest(m=2)
        sf = squash_forest(forest, ds, MlrFitConfig(), prediction_mode="argmax")
        assert sf.prediction_mode == "argmax"
        assert all(s.prediction_mode == "argmax" for s in sf.surrogates)
        default = squash_forest(forest, ds, MlrFitConfig())
        assert default.prediction_mode == "expectation"


class TestSurrogateForestPredict:
    def test_mean_of_two_surrogates(self):
        surrogates = tuple(
            TreeSurrogate(model=None, leaf_values=np.array([v]), prediction_mode="argmax")
            for v in (2.0, 4.0)
        )
        config = ForestConfig(
            subsample_size=1, features_per_split=1, max_depth=0, n_trees=2
        )
        sf = SurrogateForest(
            surrogates=surrogates, config=config, prediction_mode="argmax", n_features=1
        )
        assert surrogate_forest_predict(sf, np.array([0.0])) == 3.0

    @pytest.mark.parametrize("mode", ["expectation", "argmax"])
    def test_overflowing_sum_of_finite_forecasts_stays_finite(self, mode):
        # 1.5e308 + 1.5e308 overflows; their mean used to come out inf
        surrogates = tuple(
            TreeSurrogate(model=None, leaf_values=np.array([1.5e308]), prediction_mode=mode)
            for _ in range(2)
        )
        config = ForestConfig(
            subsample_size=1, features_per_split=1, max_depth=0, n_trees=2
        )
        sf = SurrogateForest(
            surrogates=surrogates, config=config, prediction_mode=mode, n_features=1
        )
        rows = np.array([[0.0], [1.0]])
        np.testing.assert_array_equal(surrogate_forest_predict_batch(sf, rows), 1.5e308)
        assert surrogate_forest_predict(sf, rows[0]) == 1.5e308

    @pytest.mark.parametrize(
        "leaf_values, expected",
        [
            ([1.5e308, 0.5e308], 1.0e308),
            # eleven weights of fl(1/11) sum past one: the clip keeps the largest float
            ([np.finfo(np.float64).max] * 11, np.finfo(np.float64).max),
        ],
    )
    def test_overflowing_weighted_leaf_values_leave_other_trees_alone(
        self, leaf_values, expected
    ):
        # Only the overflowing surrogate is reweighed; the other surrogate's
        # forecasts enter the mean bit for bit.
        k = len(leaf_values)
        big = TreeSurrogate(
            model=MlrModel(np.zeros(k - 1), np.zeros((k - 1, 1))),
            leaf_values=np.array(leaf_values),
            prediction_mode="expectation",
        )
        small = TreeSurrogate(
            model=MlrModel(np.array([0.3]), np.array([[2.0]])),
            leaf_values=np.array([1.0, 5.0]),
            prediction_mode="expectation",
        )
        config = ForestConfig(subsample_size=1, features_per_split=1, max_depth=2, n_trees=2)
        sf = SurrogateForest(
            surrogates=(big, small), config=config, prediction_mode="expectation",
            n_features=1,
        )
        rows = np.array([[0.5], [-2.0], [0.125]])
        want = (expected + surrogate_predict_batch(small, rows)) / 2
        np.testing.assert_array_equal(surrogate_forest_predict_batch(sf, rows), want)
        assert surrogate_forest_predict(sf, rows[2]) == want[2]

    def test_stump_forest_squash_is_lossless(self):
        ds = gen_friedman1(200, 1.0, seed=12)
        config = ForestConfig(
            subsample_size=100, features_per_split=10, max_depth=0, n_trees=8, seed=3
        )
        forest = fit_forest(ds, config)
        sf = squash_forest(forest, ds, MlrFitConfig())
        probes = gen_friedman1(500, 0.0, seed=77).features
        forest_out = forest_predict_batch(forest, probes)
        surrogate_out = surrogate_forest_predict_batch(sf, probes)
        np.testing.assert_array_equal(forest_out, surrogate_out)
        for x in probes[:20]:
            assert surrogate_forest_predict(sf, x) == forest_predict(forest, x)

    def test_recomputation_oracle(self):
        ds = gen_friedman1(150, 1.0, seed=13)
        config = ForestConfig(
            subsample_size=75, features_per_split=5, max_depth=2, n_trees=10, seed=1
        )
        forest = fit_forest(ds, config)
        sf = squash_forest(forest, ds, MlrFitConfig())
        for x in ds.features[:10]:
            independent = np.mean([surrogate_predict(s, x) for s in sf.surrogates])
            assert surrogate_forest_predict(sf, x) == pytest.approx(independent, abs=1e-12)


def _mixed_surrogate_forest(mode, leaf_counts=(1, 4, 2, 9, 1, 3, 6), p=4, seed=30):
    rng = np.random.default_rng(seed)
    surrogates = tuple(
        TreeSurrogate(
            model=(
                MlrModel(rng.normal(scale=2, size=k - 1), rng.normal(size=(k - 1, p)))
                if k > 1
                else None
            ),
            leaf_values=rng.uniform(1.0, 10.0, size=k),
            prediction_mode=mode,
        )
        for k in leaf_counts
    )
    config = ForestConfig(
        subsample_size=10, features_per_split=1, max_depth=4, n_trees=len(leaf_counts)
    )
    return SurrogateForest(
        surrogates=surrogates, config=config, prediction_mode=mode, n_features=p
    )


def _oracle(sf, x):
    """Per-surrogate forecasts from the MLR probabilities, one model at a time."""
    per_tree = []
    for s in sf.surrogates:
        if s.model is None:
            per_tree.append(np.full(x.shape[0], s.leaf_values[0]))
            continue
        probs = class_probability_matrix(s.model, x)
        if s.prediction_mode == "argmax":
            per_tree.append(s.leaf_values[np.argmax(probs, axis=1)])
        else:
            per_tree.append(probs @ s.leaf_values)
    return np.mean(per_tree, axis=0)


class TestStackedKernel:
    """The leaf-major stack predicts every surrogate at once, in row blocks."""

    K_MAX, M = 9, 7
    BLOCK = _CELLS // (K_MAX * M)

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_matches_per_surrogate_oracle(self, mode, n):
        sf = _mixed_surrogate_forest(mode)
        assert max(s.n_leaves for s in sf.surrogates) == self.K_MAX
        assert sf.n_trees == self.M
        x = np.random.default_rng(n).normal(scale=2, size=(n, sf.n_features))
        got = surrogate_forest_predict_batch(sf, x)
        want = _oracle(sf, x)
        if mode == "argmax":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_single_row_equals_its_batch_row(self, mode):
        # BLAS may sum a one-row product in another order than a block's, so
        # expectation forecasts agree to rounding and argmax ones exactly
        sf = _mixed_surrogate_forest(mode)
        x = np.random.default_rng(31).normal(scale=2, size=(self.BLOCK + 3, sf.n_features))
        batch = surrogate_forest_predict_batch(sf, x)
        for i in (0, 1, self.BLOCK - 1, self.BLOCK, self.BLOCK + 2):
            single = surrogate_forest_predict(sf, x[i])
            if mode == "argmax":
                assert single == batch[i]
            else:
                assert single == pytest.approx(batch[i], rel=1e-12, abs=0)

    def test_input_layout_does_not_change_predictions(self):
        # the CLI hands over column-major features, the library row-major
        sf = _mixed_surrogate_forest("expectation", leaf_counts=(5,) * 20, p=10)
        x = np.random.default_rng(33).normal(scale=2, size=(500, sf.n_features))
        np.testing.assert_array_equal(
            surrogate_forest_predict_batch(sf, np.asfortranarray(x)),
            surrogate_forest_predict_batch(sf, x),
        )

    def test_rejects_wrong_width(self):
        # single-leaf surrogates read no feature, but the forest still
        # records how many it was fitted on
        stumps = _mixed_surrogate_forest("expectation", leaf_counts=(1, 1))
        mixed = _mixed_surrogate_forest("expectation")
        for sf in (stumps, mixed):
            for width in (sf.n_features - 1, sf.n_features + 1):
                with pytest.raises(ValueError, match="features"):
                    surrogate_forest_predict_batch(sf, np.zeros((3, width)))
                with pytest.raises(ValueError, match="features"):
                    surrogate_forest_predict(sf, np.zeros(width))
