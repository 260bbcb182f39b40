"""Tests for leaf-dataset extraction, surrogate fitting, and squashing."""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rfsquash import _util
from rfsquash import surrogate as surrogate_module
from rfsquash.codec import decode, encode
from rfsquash.data import Dataset, gen_axis_partition, gen_friedman1
from rfsquash.errors import DataError, NumericError
from rfsquash.forest import (
    ForestConfig,
    fit_forest,
    fit_tree,
    forest_predict,
    forest_predict_batch,
    rederive_subsamples,
    traverse_batch,
)
from rfsquash.mlr import (
    MlrFitConfig,
    MlrModel,
    class_probabilities,
    class_probability_matrix,
    fit_mlr,
)
from rfsquash.surrogate import (
    _CELLS,
    SurrogateForest,
    TreeSurrogate,
    extract_leaf_dataset,
    fit_surrogate,
    squash_forest,
    surrogate_forest_predict,
    surrogate_forest_predict_batch,
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


def _one_category(p):
    """The parameter-free model of a single-leaf tree over p features."""
    return MlrModel(np.zeros(0), np.zeros((0, p)))


def _lone(surrogate, mode, n_features):
    """The one-tree surrogate forest of ``surrogate``, predicted in ``mode``."""
    config = ForestConfig(subsample_size=1, features_per_split=1, max_depth=1, n_trees=1)
    return SurrogateForest(
        surrogates=(surrogate,), config=config, prediction_mode=mode, n_features=n_features
    )


def _surrogate_row(surrogate, x, mode):
    """One surrogate's forecast at the feature vector x."""
    return surrogate_forest_predict(_lone(surrogate, mode, len(x)), x)


def _surrogate_batch(surrogate, x, mode):
    """One surrogate's forecasts at every row of the (N, p) matrix x."""
    return surrogate_forest_predict_batch(_lone(surrogate, mode, x.shape[1]), x)


class TestExtractLeafDataset:
    def test_single_leaf_tree_all_zero_labels(self):
        ds = gen_friedman1(30, 1.0, seed=0)
        tree, rows = _fitted_tree(ds, depth=0)
        features, labels = extract_leaf_dataset(tree, ds, rows)
        np.testing.assert_array_equal(labels, 0)
        np.testing.assert_array_equal(features, ds.features)

    def test_depth_one_labels_are_side_indicator(self):
        ds = gen_axis_partition(200, [(0, 0.5)], [2.0, 4.0], seed=1)
        tree, rows = _fitted_tree(ds, depth=1)
        _, labels = extract_leaf_dataset(tree, ds, rows)
        expected = (ds.features[:, 0] > tree.split_thresholds[0]).astype(int)
        np.testing.assert_array_equal(labels, expected)

    def test_histogram_matches_stored_counts(self):
        ds = gen_friedman1(150, 1.0, seed=2)
        tree, rows = _fitted_tree(ds, depth=4, min_leaf=3)
        _, labels = extract_leaf_dataset(tree, ds, rows)
        np.testing.assert_array_equal(
            np.bincount(labels, minlength=tree.n_leaves), tree.leaf_counts
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
        surrogate = fit_surrogate(tree, ds, rows, MlrFitConfig())
        assert surrogate.model.n_categories == 1 and surrogate.model.intercepts.size == 0
        fit = surrogate.fit
        assert fit.converged and fit.iterations == fit.cg_steps == 0
        with pytest.raises(DataError, match="fitted on"):  # its rows are checked too
            fit_surrogate(tree, ds, rows[:-1], MlrFitConfig())
        value = tree.leaf_values[0]
        for mode in ("argmax", "expectation"):
            for x in ds.features[:5]:
                assert _surrogate_row(surrogate, x, mode) == value

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

    def test_fit_step_counts_are_kept(self):
        ds = gen_friedman1(120, 1.0, seed=8)
        tree, rows = _fitted_tree(ds, depth=3)
        surrogate = fit_surrogate(tree, ds, rows, MlrFitConfig())
        features, labels = extract_leaf_dataset(tree, ds, rows)
        used = np.unique(tree.split_features)
        result = fit_mlr(features[:, used], labels, tree.n_leaves, MlrFitConfig())
        fit = surrogate.fit
        assert (fit.converged, fit.iterations, fit.cg_steps, fit.grad_max_norm) == (
            result.converged, result.iterations, result.cg_steps, result.grad_max_norm
        )
        assert fit.optimizer_used == result.optimizer_used
        # the record keeps the split-feature model, not the scattered one
        np.testing.assert_array_equal(fit.model.intercepts, result.model.intercepts)
        np.testing.assert_array_equal(fit.model.coefficients, result.model.coefficients)
        assert 0 < fit.iterations <= fit.cg_steps
        stump, stump_rows = _fitted_tree(ds, depth=0)
        single = fit_surrogate(stump, ds, stump_rows, MlrFitConfig()).fit
        assert (single.iterations, single.cg_steps) == (0, 0)

    def test_fit_is_the_split_feature_fit_scattered(self):
        # k < p, so the tree leaves some features unused
        ds = gen_friedman1(300, 1.0, seed=9)
        tree, rows = _fitted_tree(ds, depth=3, k=3, min_leaf=5, seed=4)
        used = np.unique(tree.split_features)
        assert 0 < used.size < ds.n_features
        config = MlrFitConfig()
        surrogate = fit_surrogate(tree, ds, rows, config)
        features, labels = extract_leaf_dataset(tree, ds, rows)
        result = fit_mlr(features[:, used], labels, tree.n_leaves, config)
        coefficients = np.zeros((tree.n_leaves - 1, ds.n_features))
        coefficients[:, used] = result.model.coefficients
        np.testing.assert_array_equal(surrogate.model.intercepts, result.model.intercepts)
        np.testing.assert_array_equal(surrogate.model.coefficients, coefficients)

    def test_single_leaf_tree_takes_the_same_path(self, monkeypatch):
        # no special case: fit_mlr sees the tree's zero split-feature columns
        ds = gen_friedman1(40, 1.0, seed=10)
        stump, rows = _fitted_tree(ds, depth=0)
        widths = []

        def spy(features, *args):
            widths.append(features.shape)
            return fit_mlr(features, *args)

        monkeypatch.setattr(surrogate_module, "fit_mlr", spy)
        single = fit_surrogate(stump, ds, rows, MlrFitConfig())
        assert widths == [(40, 0)]
        assert single.model.n_categories == 1
        assert single.model.coefficients.shape == (0, ds.n_features)
        assert single.fit.converged and (single.fit.iterations, single.fit.cg_steps) == (0, 0)

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
        )
        assert _surrogate_row(surrogate, np.array([0.7]), "expectation") == pytest.approx(3.0)

    def test_argmax_takes_most_probable_leaf(self):
        # intercept ln 9 puts theta = (0.9, 0.1)
        surrogate = TreeSurrogate(
            model=MlrModel(np.array([np.log(9.0)]), np.zeros((1, 1))),
            leaf_values=np.array([2.0, 4.0]),
        )
        assert _surrogate_row(surrogate, np.array([0.0]), "argmax") == 2.0

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
            )
            x = rng.normal(size=p)
            value = _surrogate_row(surrogate, x, "expectation")
            assert surrogate.leaf_values.min() - 1e-12 <= value
            assert value <= surrogate.leaf_values.max() + 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        surrogate = TreeSurrogate(
            model=MlrModel(rng.normal(size=2), rng.normal(size=(2, 3))),
            leaf_values=np.array([1.0, 5.0, 9.0]),
        )
        x = rng.normal(size=(20, 3))
        batch = _surrogate_batch(surrogate, x, "expectation")
        scalar = np.array([_surrogate_row(surrogate, row, "expectation") for row in x])
        np.testing.assert_allclose(batch, scalar, atol=0)

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_overflowing_logit_routes_to_its_leaf(self, mode):
        # 1e300 * 1e10 overflows: the row at +1e10 belongs wholly to leaf 0,
        # the row at -1e10 to the base leaf
        surrogate = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.array([[1e300]])),
            leaf_values=np.array([1.0, 2.0]),
        )
        predictions = _surrogate_batch(surrogate, np.array([[1e10], [-1e10]]), mode)
        np.testing.assert_array_equal(predictions, [1.0, 2.0])

    def test_overflowing_weighted_leaf_values_stay_finite(self):
        # each leaf gets probability 1/2; e * v used to be summed to 3e308
        # before the division by the softmax total, giving inf
        surrogate = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.zeros((1, 1))),
            leaf_values=np.array([1.5e308, 1.5e308]),
        )
        rows = np.array([[0.5], [-2.0]])
        np.testing.assert_array_equal(
            _surrogate_batch(surrogate, rows, "expectation"), 1.5e308
        )
        assert _surrogate_row(surrogate, rows[0], "expectation") == 1.5e308

    def test_mode_validation(self):
        surrogate = TreeSurrogate(model=_one_category(1), leaf_values=np.array([1.0]))
        with pytest.raises(ValueError, match="prediction_mode must be one of"):
            _lone(surrogate, "soft", 1)
        ds = gen_friedman1(20, 1.0, seed=5)
        config = ForestConfig(subsample_size=20, features_per_split=10, max_depth=0, n_trees=1)
        with pytest.raises(ValueError, match="prediction_mode must be one of"):
            squash_forest(fit_forest(ds, config), ds, MlrFitConfig(), prediction_mode="soft")


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
        s = sf.surrogates[0]
        for x in ds.features[:10]:
            assert surrogate_forest_predict(sf, x) == pytest.approx(
                class_probabilities(s.model, x) @ s.leaf_values, rel=1e-12, abs=0
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
        # README's recipe: four workers over fit_surrogate give squash_forest's
        # file bit for bit, so callers who fit from several threads stay covered
        ds, forest = self._forest(m=6)
        config = MlrFitConfig()
        with ThreadPoolExecutor(max_workers=4) as pool:
            fits = pool.map(lambda t, r: fit_surrogate(t, ds, r, config),
                            forest.trees, rederive_subsamples(forest))
            pooled = SurrogateForest(tuple(fits), forest.config, "expectation", ds.n_features)
        serial = squash_forest(forest, ds, config)
        assert encode(pooled, "f64") == encode(serial, "f64")
        steps = [[(s.fit.iterations, s.fit.cg_steps) for s in sf.surrogates]
                 for sf in (pooled, serial)]
        assert steps[0] == steps[1]

    def test_unsplit_features_have_zero_coefficients(self):
        ds = gen_friedman1(400, 1.0, seed=3)
        config = ForestConfig(
            subsample_size=200, features_per_split=3, max_depth=3, n_trees=6,
            min_leaf=5, seed=3,
        )
        forest = fit_forest(ds, config)
        sf = squash_forest(forest, ds, MlrFitConfig())
        unused_somewhere = 0
        for tree, s in zip(forest.trees, sf.surrogates):
            unused = np.setdiff1d(np.arange(ds.n_features), tree.split_features)
            unused_somewhere += unused.size
            assert (s.model.coefficients[:, unused] == 0.0).all()
        assert unused_somewhere > 0

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

    def test_fit_diagnostics_are_not_serialized(self):
        ds, forest = self._forest(m=2)
        config = MlrFitConfig(max_iterations=1)
        sf = squash_forest(forest, ds, config)
        for s in sf.surrogates:
            assert not s.fit.converged and s.fit.iterations == 1
            assert s.fit.grad_max_norm > config.gradient_tolerance
        blob = encode(sf)
        # a decoded file claims no fit it never recorded
        assert all(s.fit is None for s in decode(blob).surrogates)
        assert encode(decode(blob)) == blob

    def test_prediction_mode_recorded(self):
        ds, forest = self._forest(m=2)
        sf = squash_forest(forest, ds, MlrFitConfig(), prediction_mode="argmax")
        assert sf.prediction_mode == "argmax"
        default = squash_forest(forest, ds, MlrFitConfig())
        assert default.prediction_mode == "expectation"


class TestShapeChecks:
    CONFIG = ForestConfig(subsample_size=1, features_per_split=1, max_depth=1, n_trees=2)

    def _forest(self, surrogates, n_features=2):
        return SurrogateForest(
            surrogates=surrogates, config=self.CONFIG, prediction_mode="argmax",
            n_features=n_features,
        )

    def test_leaf_count_must_match_the_model(self):
        with pytest.raises(ValueError, match="model has 1 categories for 2 leaf values"):
            TreeSurrogate(model=_one_category(2), leaf_values=np.array([1.0, 2.0]))
        model = MlrModel(np.zeros(1), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="model has 2 categories for 1 leaf values"):
            TreeSurrogate(model=model, leaf_values=np.array([1.0]))

    def test_surrogate_needs_a_leaf_value(self):
        with pytest.raises(ValueError, match="at least one leaf value"):
            TreeSurrogate(model=_one_category(2), leaf_values=np.zeros(0))

    def test_forest_rejects_the_wrong_count_and_widths(self):
        leaf = TreeSurrogate(model=_one_category(2), leaf_values=np.array([1.0]))
        with pytest.raises(ValueError, match="1 surrogates for config.n_trees=2"):
            self._forest((leaf,))
        with pytest.raises(ValueError, match="positive feature count"):
            self._forest((leaf, leaf), n_features=0)
        two = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.zeros((1, 3))), leaf_values=np.array([1.0, 2.0])
        )
        narrow = TreeSurrogate(model=_one_category(1), leaf_values=np.array([1.0]))
        for other in (two, narrow):  # single-leaf surrogates are checked too
            message = f"surrogate model has {other.model.n_features} features, forest records 2"
            with pytest.raises(ValueError, match=message):
                self._forest((leaf, other))
        assert self._forest((leaf, leaf)).n_trees == 2


class TestSurrogateForestPredict:
    def test_mean_of_two_surrogates(self):
        surrogates = tuple(
            TreeSurrogate(model=_one_category(1), leaf_values=np.array([v])) for v in (2.0, 4.0)
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
            TreeSurrogate(model=_one_category(1), leaf_values=np.array([1.5e308]))
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
        )
        small = TreeSurrogate(
            model=MlrModel(np.array([0.3]), np.array([[2.0]])),
            leaf_values=np.array([1.0, 5.0]),
        )
        config = ForestConfig(subsample_size=1, features_per_split=1, max_depth=2, n_trees=2)
        sf = SurrogateForest(
            surrogates=(big, small), config=config, prediction_mode="expectation",
            n_features=1,
        )
        rows = np.array([[0.5], [-2.0], [0.125]])
        want = (expected + _surrogate_batch(small, rows, "expectation")) / 2
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
            independent = np.mean(
                [_surrogate_row(s, x, sf.prediction_mode) for s in sf.surrogates]
            )
            assert surrogate_forest_predict(sf, x) == pytest.approx(independent, abs=1e-12)


def _mixed_surrogate_forest(mode, leaf_counts=(1, 4, 2, 9, 1, 3, 6), p=4, seed=30):
    rng = np.random.default_rng(seed)
    surrogates = tuple(
        TreeSurrogate(
            model=MlrModel(rng.normal(scale=2, size=k - 1), rng.normal(size=(k - 1, p))),
            leaf_values=rng.uniform(1.0, 10.0, size=k),
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
        probs = class_probability_matrix(s.model, x)
        if sf.prediction_mode == "argmax":
            per_tree.append(s.leaf_values[np.argmax(probs, axis=1)])
        else:
            per_tree.append(probs @ s.leaf_values)
    return np.mean(per_tree, axis=0)


class TestStackedKernel:
    """The tree-major stack predicts every surrogate at once, in row blocks."""

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

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    @pytest.mark.parametrize("n", [BLOCK + 1, 3 * BLOCK + 1])
    def test_lone_last_block_equals_its_row_alone(self, mode, n):
        # the row after the last whole block takes the one-row kernel, so it
        # gets bit for bit the forecast it gets alone
        sf = _mixed_surrogate_forest(mode)
        x = np.random.default_rng(n).normal(scale=2, size=(n, sf.n_features))
        assert surrogate_forest_predict_batch(sf, x)[-1] == surrogate_forest_predict(sf, x[-1])

    def test_tied_top_logits_go_to_the_lowest_leaf(self):
        # exact ties among finite top logits, the base leaf's 0 among them,
        # beside a single-leaf surrogate and padding to K_max = 4
        def surrogate(intercepts, coefficients, k):
            model = MlrModel(np.array(intercepts), np.array(coefficients))
            return TreeSurrogate(model=model, leaf_values=np.arange(1.0, k + 1))

        surrogates = (
            surrogate([0.5, 0.5], [[0.0], [0.0]], 3),  # leaves 0 and 1 tie
            surrogate([-1.0, 0.0, 0.0], [[0.0]] * 3, 4),  # leaves 1, 2 and the base
            surrogate([-1.0], [[1.0]], 2),  # leaf 0 ties the base at x = 1 only
            TreeSurrogate(model=_one_category(1), leaf_values=np.array([7.0])),
        )
        config = ForestConfig(subsample_size=1, features_per_split=1, max_depth=2, n_trees=4)
        sf = SurrogateForest(
            surrogates=surrogates, config=config, prediction_mode="argmax", n_features=1
        )
        x = np.array([[1.0], [0.5], [1.0]])
        want = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 2.0, 1.0], [7.0, 7.0, 7.0]])
        stack = sf._stack
        batch = surrogate_module._per_tree_predictions(stack, x, "argmax")
        np.testing.assert_array_equal(batch, want)
        for row, column in zip(x, want.T):
            single = surrogate_module._row_predictions(stack, row, "argmax")
            np.testing.assert_array_equal(single, column)

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

    def test_single_row_rejects_anything_but_one_row(self):
        # a matrix used to give its first row's forecast; a forest of
        # single-leaf surrogates still takes only rows of its recorded width
        p = 4
        for leaf_counts in ((1, 4, 2, 9, 1, 3, 6), (1, 1)):
            sf = _mixed_surrogate_forest("expectation", leaf_counts, p)
            for x in (np.zeros((3, p)), np.zeros((1, p)), np.float64(0.0), np.zeros(p + 2)):
                with pytest.raises(ValueError, match=f"forest expects {p} features in one row"):
                    surrogate_forest_predict(sf, x)


# (noise columns, split candidates, depth, trees) of pilot_d8, wide_p30, serve_d5
WORKLOAD_SHAPES = [(0, 10, 8, 12), (20, 30, 8, 8), (0, 10, 5, 50)]


@pytest.fixture(scope="module", params=WORKLOAD_SHAPES)
def workload_surrogate_forest(request):
    """A squashed forest of the benchmark's shape: Friedman #1 with noise
    columns, a 1000-row subsample, k split candidates, depth and M trees.
    Two Newton steps per surrogate give realistic weights quickly."""
    noise_columns, k, depth, m = request.param
    ds = gen_friedman1(1500, 1.0, seed=depth + m)
    if noise_columns:
        noise = np.random.default_rng(m).random((ds.n_rows, noise_columns))
        ds = Dataset(responses=ds.responses, features=np.hstack([ds.features, noise]))
    config = ForestConfig(
        subsample_size=1000, features_per_split=k, max_depth=depth, n_trees=m,
        min_leaf=8, seed=m,
    )
    return squash_forest(fit_forest(ds, config), ds, MlrFitConfig(max_iterations=2))


@pytest.mark.parametrize("workload_surrogate_forest", WORKLOAD_SHAPES[2:], indirect=True)
@pytest.mark.parametrize("mode", ["argmax", "expectation"])
def test_serve_shaped_single_rows_match_the_oracle(workload_surrogate_forest, mode):
    # the shape whose single rows the benchmark times: M = 50 surrogates of
    # 28 to 32 leaves, so every row runs the padded one-row kernel
    sf = dataclasses.replace(workload_surrogate_forest, prediction_mode=mode)
    leaves = [s.n_leaves for s in sf.surrogates]
    assert sf.n_trees == 50 and 28 <= min(leaves) < max(leaves) == 32
    x = np.random.default_rng(65).uniform(-0.2, 1.2, (200, sf.n_features))
    rows = np.array([surrogate_forest_predict(sf, row) for row in x])
    if mode == "argmax":
        np.testing.assert_array_equal(rows, _oracle(sf, x))
    else:
        np.testing.assert_allclose(rows, _oracle(sf, x), rtol=1e-12, atol=0)


def _assert_row_equals_batch_of_one(sf, x):
    """The one-row path against the batch path on x alone, bit for bit:
    every per-tree forecast and the forest's mean."""
    mode = sf.prediction_mode
    for row in x:
        np.testing.assert_array_equal(
            surrogate_module._row_predictions(sf._stack, row, mode),
            surrogate_module._per_tree_predictions(sf._stack, row[None], mode)[:, 0],
        )
        assert surrogate_forest_predict(sf, row) == surrogate_forest_predict_batch(
            sf, row[None]
        )[0]


class TestOneRowPath:
    """A single row takes one product over the stack instead of the batch
    set-up, and gets the forecasts the batch path gives it alone."""

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_padding_and_single_leaves(self, mode):
        sf = _mixed_surrogate_forest(mode)
        rng = np.random.default_rng(60)
        x = np.vstack([
            rng.normal(scale=2, size=(200, sf.n_features)),
            np.zeros((1, sf.n_features)),
            np.full((1, sf.n_features), -0.0),
            np.full((1, sf.n_features), 1e3),
        ])
        _assert_row_equals_batch_of_one(sf, x)

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_workload_shaped_forests(self, workload_surrogate_forest, mode):
        sf = dataclasses.replace(workload_surrogate_forest, prediction_mode=mode)
        x = np.random.default_rng(61).uniform(-0.2, 1.2, (100, sf.n_features))
        _assert_row_equals_batch_of_one(sf, x)

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_infinite_logit_and_overflowing_leaf_values(self, mode):
        # 1e300 * 1e10 overflows to a +inf logit at x = 1e10 (-inf at -1e10);
        # the zero model with leaf values 1.5e308 overflows the sum of e * v
        # in expectation mode and is reweighed
        hot = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.array([[1e300]])),
            leaf_values=np.array([1.0, 2.0]),
        )
        big = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.zeros((1, 1))),
            leaf_values=np.array([1.5e308, 1.5e308]),
        )
        rest = _mixed_surrogate_forest(mode, p=1).surrogates
        surrogates = (hot, big) + rest
        config = ForestConfig(
            subsample_size=10, features_per_split=1, max_depth=4, n_trees=len(surrogates)
        )
        sf = SurrogateForest(
            surrogates=surrogates, config=config, prediction_mode=mode, n_features=1
        )
        x = np.array([[1e10], [-1e10], [0.5], [-2.0]])
        _assert_row_equals_batch_of_one(sf, x)
        per_tree = surrogate_module._row_predictions(sf._stack, x[0], mode)
        assert per_tree[0] == 1.0 and per_tree[1] == 1.5e308
        assert surrogate_module._row_predictions(sf._stack, x[1], mode)[0] == 2.0

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_mean_takes_the_overflow_guard_only_when_sums_can_overflow(
        self, mode, monkeypatch
    ):
        guarded = []
        mean_over_trees = _util.mean_over_trees
        monkeypatch.setattr(
            _util, "mean_over_trees", lambda a: guarded.append(a) or mean_over_trees(a)
        )
        sf = _mixed_surrogate_forest(mode)
        for row in np.random.default_rng(63).normal(scale=2, size=(20, sf.n_features)):
            surrogate_forest_predict(sf, row)
        assert guarded == []
        top = np.finfo(np.float64).max
        # two trees: leaf values up to top / 4 cannot overflow a row's sum,
        # larger ones can
        for value, takes_guard in ((top / 4, False), (np.nextafter(top / 4, top), True)):
            surrogates = tuple(
                TreeSurrogate(model=_one_category(1), leaf_values=np.array([value]))
                for _ in range(2)
            )
            config = ForestConfig(subsample_size=1, features_per_split=1, max_depth=0, n_trees=2)
            sf = SurrogateForest(surrogates, config, mode, 1)
            assert surrogate_forest_predict(sf, np.zeros(1)) == value
            assert (len(guarded) == 1) == takes_guard
            guarded.clear()

    def test_nan_logit_raises_on_both_paths(self):
        # a NaN feature gives a NaN logit (as can inf - inf inside the GEMM)
        lone = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.array([[1.0, -1.0]])),
            leaf_values=np.array([1.0, 2.0]),
        )
        config = ForestConfig(subsample_size=1, features_per_split=1, max_depth=1, n_trees=1)
        for mode in ("argmax", "expectation"):
            sf = SurrogateForest(
                surrogates=(lone,), config=config, prediction_mode=mode, n_features=2
            )
            x = np.array([np.nan, 1.0])
            with pytest.raises(NumericError, match="NaN"):
                surrogate_forest_predict(sf, x)
            with pytest.raises(NumericError, match="NaN"):
                surrogate_forest_predict_batch(sf, x[None])

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_single_rows_build_only_the_stack(self, mode, monkeypatch):
        blob = encode(_mixed_surrogate_forest(mode))
        model = decode(blob)
        fields = {f.name for f in dataclasses.fields(model)}
        # decode alone is what loading times
        assert set(vars(model)) == fields

        def no_batch(*args):
            raise AssertionError("single rows must not take the batch path")

        monkeypatch.setattr(surrogate_module, "_per_tree_predictions", no_batch)
        x = np.random.default_rng(62).normal(scale=2, size=(5, model.n_features))
        want = [surrogate_forest_predict(model, row) for row in x]
        assert set(vars(model)) == fields | {"_stack"}
        assert all(set(vars(s)) == {f.name for f in dataclasses.fields(s)}
                   for s in model.surrogates)
        assert encode(model) == blob
        assert model == dataclasses.replace(model)
        monkeypatch.undo()
        for row, value in zip(x, want):
            assert surrogate_forest_predict_batch(model, row[None])[0] == value


def _assert_agrees_with_shifted_formula(sf, x):
    """Both paths against the shifted softmax of the MLR (the oracle), the
    forecasts staying within the leaf values."""
    want = _oracle(sf, x)
    batch = surrogate_forest_predict_batch(sf, x)
    rows = np.array([surrogate_forest_predict(sf, row) for row in x])
    values = sf.surrogates[0].leaf_values
    for got in (batch, rows):
        if sf.prediction_mode == "argmax":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.all((values.min() <= got) & (got <= values.max()))


class TestUnshiftedKernel:
    """Expectation mode exponentiates the raw logits and argmax ranks them;
    entries whose exponentials overflow are redone by the shifted formula."""

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_logit_past_the_exp_range(self, mode):
        # exp(800) is +inf; exp(400) is finite
        s = TreeSurrogate(
            model=MlrModel(np.zeros(2), np.array([[800.0], [1.0]])),
            leaf_values=np.array([1.0, 2.0, 3.0]),
        )
        x = np.array([[1.0], [0.5], [-1.0], [0.0]])
        _assert_agrees_with_shifted_formula(_lone(s, mode, 1), x)

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_finite_exponentials_whose_sum_overflows(self, mode):
        # exp(709.5) is finite and twice it is not, while sum(e * v) stays
        # finite for |v| < 0.5: num / inf would come out a finite 0
        s = TreeSurrogate(
            model=MlrModel(np.array([709.5, 709.5]), np.zeros((2, 1))),
            leaf_values=np.array([0.4, 0.2, -0.1]),
        )
        sf = _lone(s, mode, 1)
        x = np.array([[0.0], [1.0]])
        _assert_agrees_with_shifted_formula(sf, x)
        want = 0.4 if mode == "argmax" else 0.3
        assert surrogate_forest_predict(sf, x[0]) == pytest.approx(want)

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_infinite_logits_share_the_mass(self, mode):
        # both non-base logits overflow to +inf at x = 1e10: they split the
        # row evenly, and argmax takes the lower of them
        s = TreeSurrogate(
            model=MlrModel(np.zeros(2), np.array([[1e300], [1e300]])),
            leaf_values=np.array([1.0, 3.0, 10.0]),
        )
        sf = _lone(s, mode, 1)
        x = np.array([[1e10], [-1e10], [0.0]])
        _assert_agrees_with_shifted_formula(sf, x)
        assert surrogate_forest_predict(sf, x[0]) == (1.0 if mode == "argmax" else 2.0)

    def test_fallback_routes_by_the_kernels_own_logits(self):
        # BLAS may add 1e300 * 1e10 and 1e300 * -1e10 to +inf, -inf or NaN,
        # depending on its order and the block size; whichever it gives,
        # expectation mode must route the row as argmax does, not recompute
        # the logit in an order of its own
        s = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.array([[1e300, 1e300]])),
            leaf_values=np.array([1.0, 2.0]),
        )
        x = np.array([[1e10, -1e10]] * 3)

        def forecasts(mode, predict, rows):
            try:
                return predict(_lone(s, mode, 2), rows)
            except NumericError:
                return None

        for predict, rows in ((surrogate_forest_predict, x[0]),
                              (surrogate_forest_predict_batch, x[:1]),
                              (surrogate_forest_predict_batch, x)):
            argmax = forecasts("argmax", predict, rows)
            expectation = forecasts("expectation", predict, rows)
            if argmax is None or expectation is None:
                assert argmax is None and expectation is None
            else:
                np.testing.assert_array_equal(expectation, argmax)

    def test_argmax_ranks_raw_logits(self):
        # exp(0.25 - 0.25) and exp(nextafter(0.25, 0) - 0.25) both round to
        # 1.0, so ranking shifted exponentials tied these two and took leaf 0;
        # ranking the logits takes the larger. Equal logits still tie low.
        below = np.nextafter(0.25, 0.0)
        assert np.exp(below - 0.25) == np.exp(0.0)
        x = np.array([[0.0], [1.0]])
        for intercepts, leaf in (([below, 0.25], 2.0), ([0.25, 0.25], 1.0)):
            s = TreeSurrogate(
                model=MlrModel(np.array(intercepts), np.zeros((2, 1))),
                leaf_values=np.array([1.0, 2.0, 3.0]),
            )
            sf = _lone(s, "argmax", 1)
            np.testing.assert_array_equal(surrogate_forest_predict_batch(sf, x), leaf)
            assert surrogate_forest_predict(sf, x[0]) == leaf


class TestOneRowAgainstLargerBlocks:
    """The documented contract: a row alone equals its place in a larger
    block up to last-bits rounding in expectation mode and in
    class_probability_matrix. In argmax mode they agree unless a tree's top
    two logits lie within the rounding of its products, which on the
    benchmark shapes no row tried comes near."""

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_surrogate_forest(self, workload_surrogate_forest, mode):
        sf = dataclasses.replace(workload_surrogate_forest, prediction_mode=mode)
        x = np.random.default_rng(63).uniform(-0.2, 1.2, (300, sf.n_features))
        batch = surrogate_forest_predict_batch(sf, x)
        rows = np.array([surrogate_forest_predict(sf, row) for row in x])
        if mode == "argmax":
            np.testing.assert_array_equal(rows, batch)
        else:
            np.testing.assert_allclose(rows, batch, rtol=1e-12, atol=0)

    def test_class_probability_matrix(self, workload_surrogate_forest):
        sf = workload_surrogate_forest
        x = np.random.default_rng(64).uniform(-0.2, 1.2, (50, sf.n_features))
        for s in sf.surrogates[:8]:
            matrix = class_probability_matrix(s.model, x)
            rows = np.array([class_probabilities(s.model, row) for row in x])
            np.testing.assert_allclose(rows, matrix, rtol=1e-12, atol=0)

    def test_argmax_differs_only_between_near_tied_leaves(self):
        # leaves 0 and 1 differ only in the last bits of every parameter, so
        # the order BLAS sums a row's products in can pick either; leaf 2 and
        # the base stand apart. Nothing here assumes any one summation order.
        p = 10
        rng = np.random.default_rng(65)
        w0 = rng.normal(size=p)
        w1 = np.nextafter(np.nextafter(w0, np.inf), np.inf)
        weights = np.vstack([w0, w1, rng.normal(size=p)])
        intercepts = np.array([0.5, np.nextafter(0.5, 1.0), 0.0])
        s = TreeSurrogate(MlrModel(intercepts, weights), np.array([1.0, 2.0, 3.0, 4.0]))
        sf = _lone(s, "argmax", p)
        x = rng.uniform(-1.0, 1.0, (20_000, p))
        batch = surrogate_forest_predict_batch(sf, x)
        alone = np.array([surrogate_forest_predict(sf, row) for row in x])
        differ = alone != batch
        assert set(alone[differ]) | set(batch[differ]) <= {1.0, 2.0}
        # any order's logit is within about (p+1)·eps/2·(|b| + Σ|w_j x_j|) of
        # the exact one, so a top-two gap past eight times that cannot flip
        logits = np.zeros((len(x), 4))
        logits[:, :3] = x @ weights.T + intercepts
        top_two = np.sort(logits, axis=1)[:, -2:]
        scale = (np.abs(intercepts) + np.abs(x[:, None, :] * weights).sum(axis=2)).max(axis=1)
        clear = top_two[:, 1] - top_two[:, 0] > 4 * (p + 1) * np.finfo(float).eps * scale
        assert not differ[clear].any()
        assert 0 < (~clear).sum() < len(x)  # both kinds of row are present
