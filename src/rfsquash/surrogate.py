"""Replace each tree's routing structure with a multinomial-logistic surrogate.

A fitted tree allocates every training row to exactly one of its K leaves.
Treating that allocation as a K-category nominal outcome gives a multinomial
dataset; fitting a multinomial logistic regression to it yields a surrogate
that routes inputs to leaves by probability instead of by threshold tests.
The tree structure is then discarded: a surrogate stores only (K-1)(p+1)
regression parameters plus the K leaf values, independent of sample size.

Two prediction modes realize the surrogate forecast. The mode belongs to the
ensemble, not to a tree: it is held once, on :class:`SurrogateForest`, and
only a forest predicts.

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
(K_max, M, block) logit array. No temporary holds more than ``_CELLS``
logits (or one row's K_max*M, when that is larger), whatever the row count.

Argmax mode ranks the raw logits, so the larger of two distinct logits wins
even where their probabilities round equal. Expectation mode exponentiates
the raw logits without the softmax shift: the base leaf's logit is 0 at
every finite row, so each surrogate's sum of exponentials is at least 1.
One batched product of an (M, 2, K_max) table of [leaf values; ones] with
the exponentials gives sum(e * v) and sum(e) together. Where either is not
finite (a logit past about 709.78, exponentials or e * v whose sum
overflows, a +inf or NaN logit), the same logits go through the shifted
formula, which shares a +inf logit's mass evenly and raises NumericError
on a NaN logit, as argmax does.

A single row skips the batch set-up (the input copy, the buffers, the block
loop): one product of the weights with [x, 1] gives its logits, and the same
per-block step turns them into its M forecasts, bit for bit those the batch
path gives the row alone. In a larger block BLAS may sum a row's products in
another order, so expectation forecasts can differ there in the last bits;
argmax ones agree while the logits are finite. The mean over trees adds
them in order for every block size, one row included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import _util
from .data import Dataset
from .errors import DataError, NumericError
from .forest import DecisionTree, Forest, ForestConfig, rederive_subsamples, traverse_batch
from .mlr import NAN_LOGIT, MlrFitConfig, MlrModel, _shifted_exp, fit_mlr

PREDICTION_MODES = ("argmax", "expectation")

# Logits per row block: a block's temporaries stay a few hundred KiB, inside
# the L2 cache. On a 2-vCPU x86-64 VM with single-threaded OpenBLAS, 20k-row
# expectation batches took (best of 15) 78.9, 76.2 and 72.4 ms at 2**15, 2**16
# and 2**17 on the serve_d5 model (40 rows per block at 2**16), 60.0, 47.5 and
# 47.4 ms on pilot_d8 (62 rows) and 53.0, 43.3 and 48.0 ms on wide_p30 (95).
_CELLS = 2**16

_ONE = np.ones(1)  # appended to a row, for the intercepts
_ONE.setflags(write=False)


@dataclass(frozen=True)
class TreeSurrogate:
    """A tree replacement: leaf-routing MLR plus the original leaf values.

    ``model`` is None exactly when the source tree had a single leaf; no
    multinomial model is needed to route to one category. ``converged``,
    ``newton_steps`` and ``cg_steps`` are training-time diagnostics copied
    from the fit (0 steps when nothing was fitted) and are not serialized.
    """

    model: Optional[MlrModel]
    leaf_values: np.ndarray
    converged: bool = True
    newton_steps: int = 0
    cg_steps: int = 0

    def __post_init__(self) -> None:
        leaf_values = np.ascontiguousarray(self.leaf_values, dtype=np.float64)
        leaf_values.setflags(write=False)
        object.__setattr__(self, "leaf_values", leaf_values)
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
    """The squashed ensemble: one surrogate per source tree, all predicted in
    the ensemble's ``prediction_mode``. Every leaf value is finite."""

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
        _check_mode(self.prediction_mode)
        if self.n_features < 1:
            raise ValueError("surrogate forest must record a positive feature count")
        for s in self.surrogates:
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


def _check_mode(mode: str) -> None:
    if mode not in PREDICTION_MODES:
        raise ValueError(f"prediction_mode must be one of {PREDICTION_MODES}, got {mode!r}")


class _Stack(NamedTuple):
    """M surrogates padded to K_max leaves, leaf-major (see module docs)."""

    # (K_max*M, p+1): row k*M + m is leaf k of surrogate m, coefficients then
    # intercept; the intercept is 0 at base leaves and -inf on padding
    weights: np.ndarray
    # (M, 2, K_max): values[m, 0] holds the leaf values of surrogate m (0 on
    # padding) and values[m, 1] ones, so that one product with the
    # exponentials gives both sum(e * v) and sum(e)
    values: np.ndarray


def _stack_surrogates(
    surrogates: tuple[TreeSurrogate, ...], n_features: int
) -> _Stack:
    m = len(surrogates)
    k_max = max(s.n_leaves for s in surrogates)
    weights = np.zeros((k_max, m, n_features + 1))
    weights[:, :, -1] = -np.inf
    values = np.zeros((m, 2, k_max))
    values[:, 1] = 1.0
    for j, s in enumerate(surrogates):
        k = s.n_leaves
        weights[k - 1, j, -1] = 0.0
        values[j, 0, :k] = s.leaf_values
        if s.model is not None:
            weights[: k - 1, j, :-1] = s.model.coefficients
            weights[: k - 1, j, -1] = s.model.intercepts
    return _Stack(weights.reshape(k_max * m, n_features + 1), values)


@np.errstate(over="ignore", invalid="ignore")
def _per_tree_predictions(stack: _Stack, x: np.ndarray, mode: str) -> np.ndarray:
    """(M, N) forecasts of every stacked surrogate at every row of x, one
    row block at a time. x must be a (N, p) matrix of the stack's width p."""
    n, p = x.shape
    m, _, k_max = stack.values.shape
    block = max(1, min(_CELLS // (k_max * m), n))
    # [x, 1], so that the GEMM adds the intercepts. Being a fresh row-major
    # copy, it also keeps a row's forecast independent of the layout x came
    # in: BLAS sums in another order when an operand arrives transposed.
    x1 = np.empty((n, p + 1))
    x1[:, :p] = x
    x1[:, p] = 1.0
    # one logit and one exponential buffer per call: allocating them per
    # block costs more than the GEMM once the allocator hands out blocks this
    # size as fresh pages
    buffer = np.empty(k_max * m * block)
    exps = np.empty(k_max * m * block)
    out = np.empty((m, n))
    for start in range(0, n, block):
        rows = slice(start, start + block)
        x_block = x1[rows]
        b = x_block.shape[0]
        logits = buffer[: k_max * m * b].reshape(k_max * m, b)
        np.matmul(stack.weights, x_block.T, out=logits)
        e = exps[: k_max * m * b].reshape(k_max, m, b)
        out[:, rows] = _forecasts(stack, logits.reshape(k_max, m, b), mode, e)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _row_predictions(stack: _Stack, x: np.ndarray, mode: str) -> np.ndarray:
    """(M,) forecasts of every stacked surrogate at one row x, a float64
    vector of the stack's width: one product of the weights with [x, 1]
    gives the (K_max, M, 1) logits, without the batch set-up. BLAS runs the
    batch path's one-column GEMM as this same product, so the forecasts are
    bit for bit the batch path's for x alone."""
    m, _, k_max = stack.values.shape
    x1 = np.concatenate((x, _ONE))
    logits = (stack.weights @ x1).reshape(k_max, m, 1)
    return _forecasts(stack, logits, mode)[:, 0]


def _forecasts(
    stack: _Stack, logits: np.ndarray, mode: str, e: Optional[np.ndarray] = None
) -> np.ndarray:
    """(M, b) forecasts of the stacked surrogates from their (K_max, M, b)
    logits; ``e``, if given, is a buffer of that shape for the exponentials.
    The callers ignore overflow and invalid warnings: overflow in their GEMM
    or in exp gives infinite or NaN entries, which are resolved below."""
    k_max, m, b = logits.shape
    if mode == "argmax":
        # the top logit is the top probability, lowest index on ties; argmax
        # takes a column's first NaN, so checking the chosen logits finds all
        top = logits.argmax(axis=0)
        if np.isnan(logits.ravel()[top * (m * b) + np.arange(m * b).reshape(m, b)]).any():
            raise NumericError(NAN_LOGIT)
        return stack.values.ravel()[top + 2 * k_max * np.arange(m)[:, None]]
    # the base leaf's logit is 0 at every finite row, so sum(e) >= 1 unless a
    # logit is NaN or the exponentials overflow: no shift is needed
    e = np.exp(logits, out=e)
    sums = np.matmul(stack.values, e.transpose(1, 0, 2))  # (M, 2, b)
    total = sums[:, 1]
    out = sums[:, 0] / total
    # an infinite or NaN e makes the total so; finite exponentials can sum
    # past the float range (out = num / inf = 0), and so can e * v alone
    bad = ~np.isfinite(total)
    bad |= ~np.isfinite(out)
    if bad.any():
        _reweigh_overflowed(stack, logits, out, bad)
    return out


def _reweigh_overflowed(
    stack: _Stack, logits: np.ndarray, out: np.ndarray, bad: np.ndarray
) -> None:
    """Recompute in place the expectation-mode entries of ``out`` where
    ``bad`` is set, from the same (K_max, M, b) logits, as sum((e / sum(e))
    * v) with e the shifted exponentials (see mlr._shifted_exp: a NaN logit
    raises NumericError, +inf logits share the mass). The weights sum to one,
    so the partial sums stay within max |v| up to the last roundings, which
    are clipped."""
    trees, rows = np.nonzero(bad)
    e = _shifted_exp(logits[:, trees, rows], axis=0)
    e /= e.sum(axis=0)
    values = stack.values[trees, 0].T
    top = np.abs(values).max(axis=0)
    out[trees, rows] = np.clip((e * values).sum(axis=0), -top, top)


def extract_leaf_dataset(
    tree: DecisionTree, dataset: Dataset, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild the tree's leaf allocation as a labeled multinomial dataset:
    the rows' features and their leaf indices, in ``[0, tree.n_leaves)``.

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
    return features, labels


def fit_surrogate(
    tree: DecisionTree,
    dataset: Dataset,
    rows: np.ndarray,
    config: MlrFitConfig,
) -> TreeSurrogate:
    """Fit the multinomial surrogate of one tree on its own training subsample.

    Leaf values are copied verbatim; only the routing function changes.
    Single-leaf trees skip model fitting entirely.
    """
    if tree.n_leaves == 1:
        return TreeSurrogate(model=None, leaf_values=tree.leaf_values.copy())
    features, labels = extract_leaf_dataset(tree, dataset, rows)
    result = fit_mlr(features, labels, tree.n_leaves, config)
    return TreeSurrogate(
        model=result.model,
        leaf_values=tree.leaf_values.copy(),
        converged=result.converged,
        newton_steps=result.iterations,
        cg_steps=result.cg_steps,
    )


def squash_forest(
    forest: Forest,
    dataset: Dataset,
    config: MlrFitConfig,
    prediction_mode: str = "expectation",
) -> SurrogateForest:
    """Replace every tree in the forest with its fitted surrogate.

    Each surrogate is fitted independently on the subsample its tree saw,
    re-derived from the forest's seeded draw. The dataset must therefore be
    the original training data, which is checked against the stored row
    count and fingerprint.
    """
    _check_mode(prediction_mode)
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
        return fit_surrogate(forest.trees[m], dataset, row_ids[m], config)

    surrogates = _util.parallel_map(squash_one, range(forest.n_trees))
    return SurrogateForest(
        surrogates=tuple(surrogates),
        config=forest.config,
        prediction_mode=prediction_mode,
        n_features=dataset.n_features,
    )


def surrogate_forest_predict(sf: SurrogateForest, x: np.ndarray) -> float:
    """Squashed-ensemble forecast at one feature vector x: mean of the
    per-surrogate predictions."""
    x = _util.one_row(x, sf.n_features, "surrogate forest")
    return float(_util.mean_over_trees(_row_predictions(sf._stack, x, sf.prediction_mode)))


def surrogate_forest_predict_batch(sf: SurrogateForest, x: np.ndarray) -> np.ndarray:
    """Squashed-ensemble forecasts at every row of x: the mean over the
    (M, N) per-surrogate forecasts, the same reduction the forest uses."""
    x = _util.rows(x, sf.n_features, "surrogate forest")
    return _util.mean_over_trees(_per_tree_predictions(sf._stack, x, sf.prediction_mode))
