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

Prediction runs every surrogate of a forest at once. On first use a
:class:`SurrogateForest` compiles its M surrogates into one leaf-major stack
padded to the largest leaf count K_max: row k*M + m of a (K_max*M, p+1)
weight matrix holds the coefficients and intercept of leaf k of surrogate m.
The base leaf has zero weights and a zero intercept; padding leaves have a
-inf intercept and a zero leaf value, so they get probability 0 and add
nothing. Rows are predicted in blocks of ``_CELLS // (K_max*M)`` (at least
one): one GEMM against the rows with a column of ones appended gives a
(K_max, M, block) logit array, and the softmax numerators, the argmax and
the probability-weighted sum all reduce over its leading axis, so each step
is elementwise over contiguous M*block slabs. No temporary holds more than
``_CELLS`` logits (or one row's K_max*M, when that is larger), whatever the
row count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import _util
from .data import Dataset
from .errors import DataError
from .forest import DecisionTree, Forest, ForestConfig, rederive_subsamples, traverse_batch
from .mlr import MlrFitConfig, MlrModel, _shifted_exp, fit_mlr

PREDICTION_MODES = ("argmax", "expectation")

# Logits per row block: a block's temporaries stay a few hundred KiB, inside
# the L2 cache, at any row count. On a 2-vCPU x86-64 VM with single-threaded
# OpenBLAS, 2**16 was the fastest of 2**14 to 2**18 for 20k rows on every
# benchmark workload (40, 61 and 90 rows per block at K_max*M = 1600, 1068
# and 728); halving or doubling it cost up to 31%.
_CELLS = 2**16


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
    """The squashed ensemble: one surrogate per source tree. Every leaf value
    is finite."""

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
        values = np.concatenate([s.leaf_values for s in self.surrogates])
        if not np.isfinite(values).all():
            raise ValueError("leaf values must be finite")

    @property
    def n_trees(self) -> int:
        return len(self.surrogates)

    @cached_property
    def _stack(self) -> _Stack:
        """The leaf-major prediction stack, built on first predict; it is not
        a field, so it is neither compared nor serialized."""
        return _stack_surrogates(self.surrogates, self.n_features)


class _Stack(NamedTuple):
    """M surrogates padded to K_max leaves, leaf-major (see module docs)."""

    # (K_max*M, p+1): row k*M + m is leaf k of surrogate m, coefficients then
    # intercept; the intercept is 0 at base leaves and -inf on padding
    weights: np.ndarray
    leaf_values: np.ndarray  # (K_max, M, 1); 0 on padding
    # whether the |leaf values| of some surrogate sum past half the largest
    # float: only then can its expectation-mode sum of e * v (each e <= 1)
    # overflow, so only then is the output checked
    may_overflow: bool


def _stack_surrogates(
    surrogates: tuple[TreeSurrogate, ...], n_features: int
) -> _Stack:
    m = len(surrogates)
    k_max = max(s.n_leaves for s in surrogates)
    weights = np.zeros((k_max, m, n_features + 1))
    weights[:, :, -1] = -np.inf
    leaf_values = np.zeros((k_max, m, 1))
    for j, s in enumerate(surrogates):
        k = s.n_leaves
        weights[k - 1, j, -1] = 0.0
        leaf_values[:k, j, 0] = s.leaf_values
        if s.model is not None:
            weights[: k - 1, j, :-1] = s.model.coefficients
            weights[: k - 1, j, -1] = s.model.intercepts
    with np.errstate(over="ignore"):
        sums = np.abs(leaf_values).sum(axis=0)
    may_overflow = bool(sums.max() > np.finfo(np.float64).max / 2)
    return _Stack(weights.reshape(k_max * m, n_features + 1), leaf_values, may_overflow)


def _per_tree_predictions(stack: _Stack, x: np.ndarray, mode: str) -> np.ndarray:
    """(M, N) forecasts of every stacked surrogate at every row of x."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    p = stack.weights.shape[1] - 1
    if x.shape[1] != p:
        raise ValueError(f"input has {x.shape[1]} features, model expects {p}")
    k_max, m, _ = stack.leaf_values.shape
    n = x.shape[0]
    block = max(1, min(_CELLS // (k_max * m), n))
    # [x, 1], so that the GEMM adds the intercepts. Being a fresh row-major
    # copy, it also keeps a row's forecast independent of the layout x came
    # in: BLAS sums in another order when an operand arrives transposed.
    x1 = np.empty((n, p + 1))
    x1[:, :p] = x
    x1[:, p] = 1.0
    # one logit buffer per call: allocating it per block costs more than the
    # GEMM once the allocator hands out blocks this size as fresh pages
    buffer = np.empty(k_max * m * block)
    # multiplying by a same-shape array runs as one loop; broadcasting the
    # (K_max, M, 1) values runs K_max*M short ones
    values = np.broadcast_to(stack.leaf_values, (k_max, m, block)).copy()
    flat_values = stack.leaf_values.ravel()
    tree_offsets = np.arange(m)[:, None]
    out = np.empty((m, n))
    # overflow in the GEMM gives +/-inf logits, which _shifted_exp resolves
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, block):
            rows = slice(start, start + block)
            x_block = x1[rows]
            b = x_block.shape[0]
            logits = buffer[: k_max * m * b].reshape(k_max * m, b)
            np.matmul(stack.weights, x_block.T, out=logits)
            e = _shifted_exp(logits.reshape(k_max, m, b), axis=0)
            if mode == "argmax":
                # normalizing would not move the top leaf; lowest index on
                # ties, as np.argmax
                out[:, rows] = flat_values[e.argmax(axis=0) * m + tree_offsets]
            else:
                total = e.sum(axis=0)
                e *= values[:, :, :b]
                np.divide(e.sum(axis=0), total, out=out[:, rows])
        if mode == "expectation" and stack.may_overflow and not np.isfinite(out).all():
            _reweigh_overflowed(stack, x1, out)
    return out


def _reweigh_overflowed(stack: _Stack, x1: np.ndarray, out: np.ndarray) -> None:
    """Recompute in place, as sum((e / sum(e)) * v), the expectation-mode
    entries of ``out`` that are not finite. Where the surrogate's leaf values
    are finite, the sum of e * v overflowed before the division; the weights
    sum to one, so the partial sums stay within max |v| up to the last
    roundings, which are clipped. Where one is not, the entry comes out
    non-finite again."""
    k_max, m, _ = stack.leaf_values.shape
    trees, rows = np.nonzero(~np.isfinite(out))
    weights = stack.weights.reshape(k_max, m, -1)[:, trees]
    e = _shifted_exp(np.einsum("kbj,bj->kb", weights, x1[rows]), axis=0)
    e /= e.sum(axis=0)
    values = stack.leaf_values[:, trees, 0]
    top = np.abs(values).max(axis=0)
    out[trees, rows] = np.clip((e * values).sum(axis=0), -top, top)


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
    """Forecasts of one surrogate at every row of x. A single-leaf surrogate
    has no model to fix the feature count, so it takes any width."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    p = surrogate.model.n_features if surrogate.model is not None else x.shape[1]
    stack = _stack_surrogates((surrogate,), p)
    return _per_tree_predictions(stack, x, surrogate.prediction_mode)[0]


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
    """Squashed-ensemble forecasts at every row of x: the mean over the
    (M, N) per-surrogate forecasts, the same reduction the forest uses."""
    return _util.mean_over_trees(_per_tree_predictions(sf._stack, x, sf.prediction_mode))
