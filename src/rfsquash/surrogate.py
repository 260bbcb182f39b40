"""Replace each tree's routing structure with a multinomial-logistic surrogate.

A fitted tree allocates every training row to exactly one of its K leaves.
Treating that allocation as a K-category nominal outcome gives a multinomial
dataset; fitting a multinomial logistic regression to it yields a surrogate
that routes inputs to leaves by probability instead of by threshold tests.
On the training rows a row's leaf depends only on the features its tree
splits on, so each surrogate is the penalized MLE over those features, with
zero coefficients on every other. The tree structure is then discarded: a
surrogate stores (K-1)(p+1) regression parameters, the zeros included, plus
the K leaf values, independent of sample size, so its size and the .rfsq
format are the same as for a fit over all p features.

Two prediction modes realize the surrogate forecast. The mode belongs to the
ensemble, not to a tree: it is held once, on :class:`SurrogateForest`, and
only a forest predicts.

* ``argmax``: the leaf value of the most probable leaf (hard routing, mimics
  the tree).
* ``expectation``: the probability-weighted mean of all leaf values (smooth
  in x; the default).

Prediction runs every surrogate of a forest at once. On first use a
:class:`SurrogateForest` compiles its M surrogates into one tree-major stack
padded to the largest leaf count K_max: column m*K_max + k of a C-contiguous
(p+1, M*K_max) weight matrix holds the coefficients and, in its last row,
the intercept of leaf k of surrogate m. The base leaf has zero weights and a
zero intercept; padding leaves have a -inf intercept and a zero leaf value,
so they get probability 0 and add nothing. Rows are predicted in blocks of
``_CELLS // (K_max*M)`` (at least one): one GEMM of the rows, with a column
of ones appended, against the weights gives a (block, M, K_max) logit array
whose leaf axis is contiguous. No temporary holds more than ``_CELLS``
logits (or one row's K_max*M, when that is larger), whatever the row count.

Argmax mode ranks the raw logits over the leaf axis, lowest leaf on ties,
so the larger of two distinct logits wins even where their probabilities
round equal. Expectation mode exponentiates the raw logits without the
softmax shift: the base leaf's logit is 0 at every finite row, so each
surrogate's sum of exponentials is at least 1. One batched product of the
exponentials with an (M, 2, K_max) table of [leaf values; ones] gives
sum(e * v) and sum(e) together. Where either is not finite (a logit past
about 709.78, exponentials or e * v whose sum overflows, a +inf or NaN
logit), the same logits go through the shifted formula, which shares a +inf
logit's mass evenly and raises NumericError on a NaN logit, as argmax does.

A single row skips the batch set-up (the input copy, the buffers, the block
loop) and takes a lean kernel of its own: one GEMV of the row with the
weights gives its (M, K_max) logits, and each tree's two sums run over its
own K_max leaves. A batch hands every one-row block to the same kernel, so a
row alone and the last row of a batch one longer than a whole number of
blocks get the same forecasts, bit for bit. In a larger block BLAS may sum a
row's products in another order, so expectation forecasts can differ there
in the last bits, and argmax ones agree unless a tree's top two logits lie
within the rounding of its products. The mean over trees adds them in
order for every block size, one row included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import _util
from .data import Dataset
from .errors import DataError, NumericError
from .forest import DecisionTree, Forest, ForestConfig, rederive_subsamples, traverse_batch
from .mlr import NAN_LOGIT, MlrFitConfig, MlrFitResult, MlrModel, _softmax, fit_mlr

PREDICTION_MODES = ("argmax", "expectation")

# Logits per row block: a block's temporaries stay a few hundred KiB, inside
# the L2 cache. On a 2-vCPU x86-64 VM with single-threaded OpenBLAS, 20k-row
# expectation batches took (best of 15) 68.2, 64.4 and 75.0 ms at 2**15, 2**16
# and 2**17 on the serve_d5 model (40 rows per block at 2**16), 37.3, 36.4 and
# 42.1 ms on pilot_d8 (62 rows) and 36.5, 32.9 and 34.4 ms on wide_p30 (95).
_CELLS = 2**16


@dataclass(frozen=True)
class TreeSurrogate:
    """A tree replacement: leaf-routing MLR plus the original leaf values.

    The model has one category per leaf. A single-leaf tree's has one
    category and no parameters, and routes every row to that leaf.
    ``fit`` is the record :func:`fit_mlr` returned on the tree's split
    features, so its model has only their coefficient columns. It is neither
    compared nor serialized: a decoded or hand-built surrogate has none.
    """

    model: MlrModel
    leaf_values: np.ndarray
    fit: Optional[MlrFitResult] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        leaf_values = np.ascontiguousarray(self.leaf_values, dtype=np.float64)
        leaf_values.setflags(write=False)
        object.__setattr__(self, "leaf_values", leaf_values)
        k = leaf_values.shape[0]
        if k < 1:
            raise ValueError("surrogate needs at least one leaf value")
        if self.model.n_categories != k:
            raise ValueError(
                f"model has {self.model.n_categories} categories for {k} leaf values"
            )

    @property
    def n_leaves(self) -> int:
        return self.leaf_values.shape[0]


@dataclass(frozen=True)
class SurrogateForest:
    """The squashed ensemble: one surrogate per source tree, all predicted in
    the ensemble's ``prediction_mode``. Every leaf value is finite. The config
    passes ``validate_against`` as a forest's does, with its own subsample
    size standing in for the row count, which a surrogate does not record."""

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
        self.config.validate_against(self.config.subsample_size, self.n_features)
        for s in self.surrogates:
            if s.model.n_features != self.n_features:
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
        """The tree-major prediction stack, built on first predict; it is not
        a field, so it is neither compared nor serialized."""
        return _stack_surrogates(self.surrogates, self.n_features)


def _check_mode(mode: str) -> None:
    if mode not in PREDICTION_MODES:
        raise ValueError(f"prediction_mode must be one of {PREDICTION_MODES}, got {mode!r}")


class _Stack(NamedTuple):
    """M surrogates padded to K_max leaves, tree-major (see module docs)."""

    # (p+1, M*K_max), C-contiguous: column m*K_max + k is leaf k of surrogate
    # m, its coefficients down the first p rows and its intercept in the
    # last; the intercept is 0 at base leaves and -inf on padding
    weights: np.ndarray
    # (M, 2, K_max): values[m, 0] holds the leaf values of surrogate m (0 on
    # padding) and values[m, 1] ones, so that one product per tree with the
    # exponentials gives both sum(e * v) and sum(e)
    values: np.ndarray
    # whether M times the largest |leaf value| is within half the float
    # range: every forecast lies within that value, so no running sum of a
    # row's M forecasts can overflow
    sums_stay_finite: bool


def _stack_surrogates(
    surrogates: tuple[TreeSurrogate, ...], n_features: int
) -> _Stack:
    m = len(surrogates)
    k_max = max(s.n_leaves for s in surrogates)
    weights = np.zeros((n_features + 1, m, k_max))
    weights[-1] = -np.inf
    values = np.zeros((m, 2, k_max))
    values[:, 1] = 1.0
    for j, s in enumerate(surrogates):
        k = s.n_leaves
        weights[-1, j, k - 1] = 0.0
        values[j, 0, :k] = s.leaf_values
        weights[:-1, j, : k - 1] = s.model.coefficients.T
        weights[-1, j, : k - 1] = s.model.intercepts
    sums_stay_finite = bool(np.abs(values[:, 0]).max() <= np.finfo(np.float64).max / (2 * m))
    return _Stack(weights.reshape(n_features + 1, m * k_max), values, sums_stay_finite)


@np.errstate(over="ignore", invalid="ignore")
def _per_tree_predictions(stack: _Stack, x: np.ndarray, mode: str) -> np.ndarray:
    """(M, N) forecasts of every stacked surrogate at every row of x, one
    row block at a time. x must be a (N, p) matrix of the stack's width p.
    A block of one row goes through the one-row kernel, so that a row alone
    and the last row of a batch one longer than a whole number of blocks get
    the same forecasts."""
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
    buffer = np.empty(block * m * k_max)
    exps = np.empty(block * m * k_max) if mode == "expectation" else None
    out = np.empty((m, n))
    for start in range(0, n, block):
        rows = slice(start, start + block)
        x_block = x1[rows]
        b = x_block.shape[0]
        if b == 1:
            out[:, start] = _row_predictions(stack, x_block[0, :p], mode)
            continue
        logits = buffer[: b * m * k_max].reshape(b, m * k_max)
        np.matmul(x_block, stack.weights, out=logits)
        out[:, rows] = _block_forecasts(stack, logits.reshape(b, m, k_max), mode, exps)
    return out


def _block_forecasts(
    stack: _Stack, logits: np.ndarray, mode: str, exps: Optional[np.ndarray]
) -> np.ndarray:
    """(M, b) forecasts of the stacked surrogates from their (b, M, K_max)
    logits; ``exps`` is a buffer that holds at least as many exponentials.
    The caller ignores overflow and invalid warnings: overflow in its GEMM or
    in exp gives infinite or NaN entries, which are resolved below."""
    b, m, k_max = logits.shape
    if mode == "argmax":
        # the top logit is the top probability, lowest leaf on ties; argmax
        # takes a tree's first NaN, so checking the chosen logits finds all
        leaf = logits.argmax(axis=2)
        cells = leaf + k_max * np.arange(b * m).reshape(b, m)
        if np.isnan(logits.ravel()[cells]).any():
            raise NumericError(NAN_LOGIT)
        return stack.values.ravel()[leaf + 2 * k_max * np.arange(m)].T
    # the base leaf's logit is 0 at every finite row, so sum(e) >= 1 unless a
    # logit is NaN or the exponentials overflow: no shift is needed
    e = np.exp(logits, out=exps[: b * m * k_max].reshape(b, m, k_max))
    sums = np.matmul(e.transpose(1, 0, 2), stack.values.transpose(0, 2, 1))  # (M, b, 2)
    out = sums[..., 0] / sums[..., 1]
    # a finite sum(e * v) over a finite sum(e) >= 1 is a finite quotient, so
    # the sums alone are checked: finite exponentials can sum past the float
    # range (the quotient would be a finite, wrong 0), and so can e * v
    if not np.isfinite(sums).all():
        trees, rows = np.nonzero(~np.isfinite(sums).all(axis=2))
        out[trees, rows] = _reweigh(stack, logits[rows, trees], trees)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _row_predictions(stack: _Stack, x: np.ndarray, mode: str) -> np.ndarray:
    """(M,) forecasts of every stacked surrogate at one row x, a float64
    vector of the stack's width p. One GEMV of x with the weights' first p
    rows, plus their last, gives the (M, K_max) logits without the batch
    set-up; each tree's sums run over its own K_max leaves."""
    m, _, k_max = stack.values.shape
    # contiguous, since numpy leaves a strided vector to its own loop, which
    # sums in another order than BLAS
    logits = np.ascontiguousarray(x) @ stack.weights[:-1]
    logits += stack.weights[-1]
    logits = logits.reshape(m, k_max)
    if mode == "argmax":
        leaf = logits.argmax(axis=1)
        trees = np.arange(m)
        if np.isnan(logits[trees, leaf]).any():
            raise NumericError(NAN_LOGIT)
        return stack.values[trees, 0, leaf]
    sums = np.vecdot(np.exp(logits)[:, None], stack.values)  # (M, 2)
    out = sums[:, 0] / sums[:, 1]
    if not np.isfinite(sums).all():
        trees = np.flatnonzero(~np.isfinite(sums).all(axis=1))
        out[trees] = _reweigh(stack, logits[trees], trees)
    return out


def _reweigh(stack: _Stack, logits: np.ndarray, trees: np.ndarray) -> np.ndarray:
    """Expectation forecasts of surrogates ``trees`` from their (n, K_max)
    logits, one row each, as sum(softmax * v) (see mlr._softmax: a NaN logit
    raises NumericError, +inf logits share the mass). The weights sum to
    one, so the partial sums stay within max |v| up to the last roundings,
    which are clipped. ``logits`` is overwritten."""
    e = _softmax(logits)
    values = stack.values[trees, 0]
    top = np.abs(values).max(axis=1)
    return np.clip((e * values).sum(axis=1), -top, top)


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

    On those rows a row's leaf is a function of the features the tree splits
    on, so the surrogate is the penalized MLE over those features alone: the
    fit sees only their columns, and every other feature's coefficients are
    exactly zero. The model still holds (K-1)(p+1) parameters, so its stored
    size and format do not change. Leaf values are copied verbatim; only the
    routing function changes. A single-leaf tree splits on no feature and
    takes the same path: its rows are checked like any other's, and its
    surrogate gets the one-category model, with nothing to fit. Either way
    the surrogate keeps the split-feature fit's record as ``fit``.
    """
    features, labels = extract_leaf_dataset(tree, dataset, rows)
    used = np.unique(tree.split_features)
    result = fit_mlr(features[:, used], labels, tree.n_leaves, config)
    coefficients = np.zeros((tree.n_leaves - 1, dataset.n_features))
    coefficients[:, used] = result.model.coefficients
    return TreeSurrogate(
        model=MlrModel(result.model.intercepts, coefficients),
        leaf_values=tree.leaf_values.copy(),
        fit=result,
    )


def squash_forest(
    forest: Forest,
    dataset: Dataset,
    config: MlrFitConfig,
    prediction_mode: str = "expectation",
) -> SurrogateForest:
    """Replace every tree in the forest with its fitted surrogate.

    Each surrogate is fitted independently on the subsample its tree saw,
    re-derived from the forest's seeded draw, one tree after another on the
    calling thread. The dataset must therefore be the original training
    data, which is checked against the stored row count and fingerprint.
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
    surrogates = tuple(
        fit_surrogate(tree, dataset, rows, config)
        for tree, rows in zip(forest.trees, rederive_subsamples(forest))
    )
    return SurrogateForest(
        surrogates=surrogates,
        config=forest.config,
        prediction_mode=prediction_mode,
        n_features=dataset.n_features,
    )


def surrogate_forest_predict(sf: SurrogateForest, x: np.ndarray) -> float:
    """Squashed-ensemble forecast at one feature vector x: mean of the
    per-surrogate predictions."""
    x = _util.one_row(x, sf.n_features, "surrogate forest")
    stack = sf._stack
    per_tree = _row_predictions(stack, x, sf.prediction_mode)
    if stack.sums_stay_finite:
        # mean_over_trees's own first step, without entering the np.errstate
        # it needs for sums that may overflow: that took about 1 us of a
        # 15 us row on a 2-vCPU x86-64 VM
        return float(_util.sum_in_order(per_tree) / len(per_tree))
    return float(_util.mean_over_trees(per_tree))


def surrogate_forest_predict_batch(sf: SurrogateForest, x: np.ndarray) -> np.ndarray:
    """Squashed-ensemble forecasts at every row of x: the mean over the
    (M, N) per-surrogate forecasts, the same reduction the forest uses."""
    x = _util.rows(x, sf.n_features, "surrogate forest")
    return _util.mean_over_trees(_per_tree_predictions(sf._stack, x, sf.prediction_mode))
