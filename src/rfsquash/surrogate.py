"""Replace each tree's routing structure with a multinomial-logistic surrogate.

A fitted tree allocates every training row to exactly one of its K leaves.
Treating that allocation as a K-category nominal outcome gives a multinomial
dataset; fitting a multinomial logistic regression to it yields a surrogate
that routes inputs to leaves by probability instead of by threshold tests.
The tree structure is then discarded: a surrogate stores only (K-1)(p+1)
regression parameters plus the K leaf values, independent of sample size.

Two prediction modes realize the surrogate forecast:

* ``argmax``: the leaf value of the most probable leaf (hard routing, mimics
  the tree).
* ``expectation``: the probability-weighted mean of all leaf values (smooth
  in x; the default).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _util
from .data import Dataset
from .errors import DataError
from .forest import DecisionTree, Forest, ForestConfig, rederive_subsamples, traverse_batch
from .mlr import MlrFitConfig, MlrModel, class_probability_matrix, fit_mlr

PREDICTION_MODES = ("argmax", "expectation")


@dataclass(frozen=True)
class LeafDataset:
    """Per-tree multinomial training data: features plus leaf-index labels."""

    features: np.ndarray
    labels: np.ndarray
    n_leaves: int

    def __post_init__(self) -> None:
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels and features must have equal row counts")
        if self.labels.size and int(self.labels.max()) >= self.n_leaves:
            raise ValueError("leaf label out of range")


@dataclass(frozen=True)
class TreeSurrogate:
    """A tree replacement: leaf-routing MLR plus the original leaf values.

    ``model`` is None exactly when the source tree had a single leaf; no
    multinomial model is needed to route to one category. ``converged`` is a
    training-time diagnostic and is not serialized.
    """

    model: Optional[MlrModel]
    leaf_values: np.ndarray
    prediction_mode: str
    converged: bool = True

    def __post_init__(self) -> None:
        leaf_values = np.ascontiguousarray(self.leaf_values, dtype=np.float64)
        leaf_values.setflags(write=False)
        object.__setattr__(self, "leaf_values", leaf_values)
        if self.prediction_mode not in PREDICTION_MODES:
            raise ValueError(
                f"prediction_mode must be one of {PREDICTION_MODES}, "
                f"got {self.prediction_mode!r}"
            )
        k = leaf_values.shape[0]
        if k < 1:
            raise ValueError("surrogate needs at least one leaf value")
        if self.model is None:
            if k != 1:
                raise ValueError("model may be omitted only for single-leaf trees")
        elif self.model.n_categories != k:
            raise ValueError(
                f"model has {self.model.n_categories} categories for {k} leaf values"
            )

    @property
    def n_leaves(self) -> int:
        return self.leaf_values.shape[0]


@dataclass(frozen=True)
class SurrogateForest:
    """The squashed ensemble: one surrogate per source tree."""

    surrogates: tuple[TreeSurrogate, ...]
    config: ForestConfig
    prediction_mode: str
    n_features: int

    def __post_init__(self) -> None:
        if len(self.surrogates) != self.config.n_trees:
            raise ValueError(
                f"{len(self.surrogates)} surrogates for config.n_trees="
                f"{self.config.n_trees}"
            )
        if self.prediction_mode not in PREDICTION_MODES:
            raise ValueError(f"bad prediction_mode {self.prediction_mode!r}")
        if self.n_features < 1:
            raise ValueError("surrogate forest must record a positive feature count")
        for s in self.surrogates:
            if s.prediction_mode != self.prediction_mode:
                raise ValueError(
                    f"surrogate predicts in {s.prediction_mode!r} mode, forest "
                    f"declares {self.prediction_mode!r}"
                )
            if s.model is not None and s.model.n_features != self.n_features:
                raise ValueError(
                    f"surrogate model has {s.model.n_features} features, "
                    f"forest records {self.n_features}"
                )

    @property
    def n_trees(self) -> int:
        return len(self.surrogates)


def extract_leaf_dataset(
    tree: DecisionTree, dataset: Dataset, rows: np.ndarray
) -> LeafDataset:
    """Rebuild the tree's leaf allocation as a labeled multinomial dataset.

    The label histogram must reproduce the tree's stored leaf counts; a
    mismatch means the rows are not the ones the tree was fitted on.
    """
    rows = np.asarray(rows, dtype=np.int64)
    expected = int(tree.leaf_counts.sum())
    if rows.shape[0] != expected:
        raise DataError(
            f"{rows.shape[0]} rows given, but the tree was fitted on {expected}"
        )
    features = dataset.features[rows]
    labels = traverse_batch(tree, features)
    histogram = np.bincount(labels, minlength=tree.n_leaves)
    if not np.array_equal(histogram, tree.leaf_counts):
        raise DataError(
            "leaf-label histogram does not match the tree's stored leaf counts; "
            "the given rows are not the tree's training subsample"
        )
    return LeafDataset(features=features, labels=labels, n_leaves=tree.n_leaves)


def fit_surrogate(
    tree: DecisionTree,
    dataset: Dataset,
    rows: np.ndarray,
    config: MlrFitConfig,
    prediction_mode: str = "expectation",
) -> TreeSurrogate:
    """Fit the multinomial surrogate of one tree on its own training subsample.

    Leaf values are copied verbatim; only the routing function changes.
    Single-leaf trees skip model fitting entirely.
    """
    if tree.n_leaves == 1:
        return TreeSurrogate(
            model=None,
            leaf_values=tree.leaf_values.copy(),
            prediction_mode=prediction_mode,
            converged=True,
        )
    leaf_data = extract_leaf_dataset(tree, dataset, rows)
    result = fit_mlr(leaf_data.features, leaf_data.labels, leaf_data.n_leaves, config)
    return TreeSurrogate(
        model=result.model,
        leaf_values=tree.leaf_values.copy(),
        prediction_mode=prediction_mode,
        converged=result.converged,
    )


def surrogate_predict(surrogate: TreeSurrogate, x: np.ndarray) -> float:
    """Forecast of one surrogate at one feature vector x, per its prediction mode."""
    return float(surrogate_predict_batch(surrogate, x)[0])


def surrogate_predict_batch(surrogate: TreeSurrogate, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if surrogate.model is None:
        return np.full(x.shape[0], surrogate.leaf_values[0])
    probs = class_probability_matrix(surrogate.model, x)
    if surrogate.prediction_mode == "argmax":
        return surrogate.leaf_values[np.argmax(probs, axis=1)]
    return probs @ surrogate.leaf_values


def squash_forest(
    forest: Forest,
    dataset: Dataset,
    config: MlrFitConfig,
    prediction_mode: str = "expectation",
    n_jobs: int | None = None,
) -> SurrogateForest:
    """Replace every tree in the forest with its fitted surrogate.

    Each surrogate is fitted independently on the subsample its tree saw,
    re-derived from the forest's seeded draw. The dataset must therefore be
    the original training data, which is checked against the stored row
    count and fingerprint.
    """
    if prediction_mode not in PREDICTION_MODES:
        raise ValueError(f"bad prediction_mode {prediction_mode!r}")
    if forest.dataset_rows != dataset.n_rows:
        raise DataError(
            f"forest was trained on {forest.dataset_rows} rows, dataset has "
            f"{dataset.n_rows}"
        )
    if forest.dataset_fingerprint != dataset.fingerprint():
        raise DataError(
            "dataset fingerprint mismatch: this is not the data the forest "
            "was trained on"
        )
    row_ids = rederive_subsamples(forest)

    def squash_one(m: int) -> TreeSurrogate:
        return fit_surrogate(forest.trees[m], dataset, row_ids[m], config, prediction_mode)

    surrogates = _util.parallel_map(squash_one, range(forest.n_trees), n_jobs)
    return SurrogateForest(
        surrogates=tuple(surrogates),
        config=forest.config,
        prediction_mode=prediction_mode,
        n_features=dataset.n_features,
    )


def with_prediction_mode(sf: SurrogateForest, mode: str) -> SurrogateForest:
    """The same squashed ensemble, predicting in the given mode.

    Mode only affects how fitted probabilities turn into forecasts, so no
    refitting happens; the fitted models are shared.
    """
    return replace(
        sf,
        surrogates=tuple(replace(s, prediction_mode=mode) for s in sf.surrogates),
        prediction_mode=mode,
    )


def surrogate_forest_predict(sf: SurrogateForest, x: np.ndarray) -> float:
    """Squashed-ensemble forecast at one feature vector x: mean of the
    per-surrogate predictions."""
    return float(surrogate_forest_predict_batch(sf, x)[0])


def surrogate_forest_predict_batch(sf: SurrogateForest, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    # the same (M, N) matrix as np.stack, with less per-array overhead, which
    # is most of the cost of a single-row call
    stacked = np.array([surrogate_predict_batch(s, x) for s in sf.surrogates])
    return np.mean(stacked, axis=0)
