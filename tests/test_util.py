"""Tests for seed derivation, the input-shape rule and the in-order sums."""

import re

import numpy as np
import pytest

from rfsquash._util import (
    derive_seed,
    mean_over_trees,
    rng_for,
    rows,
    sum_in_order,
)
from rfsquash.data import gen_friedman1
from rfsquash.forest import ForestConfig, fit_forest, forest_predict_batch
from rfsquash.mlr import MlrModel, class_probability_matrix
from rfsquash.surrogate import SurrogateForest, TreeSurrogate, surrogate_forest_predict_batch


class TestSeeds:
    def test_rng_deterministic_per_key(self):
        a = rng_for(1, 2, 3).random(4)
        b = rng_for(1, 2, 3).random(4)
        c = rng_for(1, 2, 4).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_seed_stable(self):
        assert derive_seed(5, 0) == derive_seed(5, 0)
        assert derive_seed(5, 0) != derive_seed(5, 1)
        assert 0 <= derive_seed(5, 0) < 2**64

    def test_large_path_keys_accepted(self):
        rng_for(0, 2**60 + 1, 7).random(1)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            rng_for(1, -2, 3)


class TestSumInOrder:
    # 1 + 2**-53 rounds back to 1 at every step in order; numpy's pairwise
    # sum of a lone column adds the small terms first and gets past 1
    COLUMN = np.array([1.0] + [2.0**-53] * 15)

    @pytest.mark.parametrize("shape", [(16,), (16, 1), (16, 1, 1)])
    def test_lone_column_adds_in_order(self, shape):
        total = sum_in_order(self.COLUMN.reshape(shape))
        assert total.shape == shape[1:]
        assert np.all(total == 1.0)
        assert np.all(mean_over_trees(self.COLUMN.reshape(shape[:2])) == 1.0 / 16)

    @pytest.mark.parametrize("m", [2, 8, 9, 50])
    def test_every_shape_adds_the_trees_in_order(self, m):
        # a tree's values sum the same in an (M,) row, an (M, 1) slab and a
        # column of an (M, N) block of either layout; with values near the
        # largest float the running sum overflows and the fallback adds v / M
        rng = np.random.default_rng(m)
        for low, scale, fallback in ((0.5, 1.7, False), (0.95, 1.79e308, True)):
            block = rng.uniform(low, 1.0, (m, 5)) * scale
            want = np.empty(5)
            for j in range(5):
                total = block[0, j] / m if fallback else block[0, j]
                for v in block[1:, j]:
                    total += v / m if fallback else v
                want[j] = total if fallback else total / m
            assert np.all(np.isfinite(want))
            np.testing.assert_array_equal(mean_over_trees(block), want)
            np.testing.assert_array_equal(mean_over_trees(np.asfortranarray(block)), want)
            for j in range(5):
                assert mean_over_trees(block[:, j]) == want[j]
                assert mean_over_trees(block[:, j].copy()) == want[j]
                assert mean_over_trees(block[:, j : j + 1])[0] == want[j]


def _batch_predictors():
    """(owner, predictor) for every batch predictor, each over 10 features."""
    config = ForestConfig(
        subsample_size=30, features_per_split=10, max_depth=2, n_trees=2, seed=1
    )
    forest = fit_forest(gen_friedman1(60, 1.0, seed=0), config)
    rng = np.random.default_rng(5)
    model = MlrModel(rng.normal(size=2), rng.normal(size=(2, 10)))
    surrogates = (
        TreeSurrogate(model=model, leaf_values=np.array([1.0, 2.0, 4.0])),
        TreeSurrogate(model=MlrModel(np.zeros(0), np.zeros((0, 10))), leaf_values=np.array([3.0])),
    )
    predictors = [
        ("forest", lambda x: forest_predict_batch(forest, x)),
        ("mlr model", lambda x: class_probability_matrix(model, x)),
    ]
    for mode in ("argmax", "expectation"):
        sf = SurrogateForest(
            surrogates=surrogates, config=config, prediction_mode=mode, n_features=10
        )
        predictors.append(
            ("surrogate forest", lambda x, sf=sf: surrogate_forest_predict_batch(sf, x))
        )
    return predictors


class TestRows:
    def test_converts_and_keeps_matrices(self):
        x = rows(np.ones((3, 2), dtype=np.float32), 2, "model")
        assert x.dtype == np.float64 and x.shape == (3, 2)
        np.testing.assert_array_equal(rows([1, 2], 2, "model"), [[1.0, 2.0]])
        assert rows(np.zeros((0, 2)), 2, "model").shape == (0, 2)

    @pytest.mark.parametrize(
        "owner, predict", _batch_predictors(),
        ids=["forest", "mlr", "surrogate-argmax", "surrogate-expectation"],
    )
    def test_every_batch_predictor_keeps_one_rule(self, owner, predict):
        x = np.random.default_rng(7).uniform(size=(4, 10))
        np.testing.assert_array_equal(predict(x[1]), predict(x[1:2]))
        assert len(predict(x)) == 4
        assert len(predict(np.zeros((0, 10)))) == 0
        # a 3-D array used to pass the width check and fail inside numpy
        for bad in (
            np.zeros((4, 9)), np.zeros(11), np.float64(0.0), 0.0,
            np.zeros((2, 3, 10)), np.zeros((2, 10, 10)),
        ):
            message = f"{owner} expects 10 features per row, got an input of shape {np.shape(bad)}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                predict(bad)
