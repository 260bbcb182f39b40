"""Seed derivation, input-shape and ensemble-mean helpers used across
modules."""

from __future__ import annotations

import math

import numpy as np

# Stream tags keep the per-purpose RNG streams disjoint even when the same
# (seed, index) pair feeds several of them.
SUBSAMPLE_STREAM = 0x5355
TREE_STREAM = 0x5452
FEATURE_STREAM = 0x4645


def rng_for(*keys: int) -> np.random.Generator:
    """Deterministic generator keyed on an ordered tuple of non-negative ints
    (numpy raises ValueError for a negative one)."""
    return np.random.default_rng(list(keys))


def derive_seed(*keys: int) -> int:
    """Collapse a key tuple into a single 64-bit seed."""
    a, b = np.random.SeedSequence(list(keys)).generate_state(2)
    return (int(a) << 32) | int(b)


def one_row(x: np.ndarray, n_features: int, owner: str) -> np.ndarray:
    """x as a float64 vector of n_features values. Anything else raises
    ValueError, a matrix included: taking its first row would hide the
    caller's mistake."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n_features,):
        raise ValueError(
            f"{owner} expects {n_features} features in one row, got an input "
            f"of shape {x.shape}"
        )
    return x


def rows(x: np.ndarray, n_features: int | None, owner: str) -> np.ndarray:
    """x as a float64 (N, p) matrix, a vector of p values being one row; p is
    n_features, or any width when that is None. Anything else raises
    ValueError: a wrong width, a lone number or an array of three or more
    dimensions."""
    x = np.asarray(x, dtype=np.float64)
    if not 1 <= x.ndim <= 2 or n_features not in (None, x.shape[-1]):
        width = "p" if n_features is None else n_features
        raise ValueError(
            f"{owner} expects {width} features per row, got an input of shape {x.shape}"
        )
    return np.atleast_2d(x)


def sum_in_order(a: np.ndarray) -> np.ndarray:
    """The sum over axis 0, adding a[0], a[1], ... in turn for every shape
    and layout. numpy reduces a C-ordered array that way when each a[i]
    holds two or more values, but sums along a contiguous axis 0, such as a
    lone column, pairwise, which differs in the last bits from eight terms
    on; accumulating keeps the order."""
    if a.size > a.shape[0]:
        return np.add.reduce(np.ascontiguousarray(a), axis=0)
    return np.add.accumulate(a, axis=0)[-1]


@np.errstate(over="ignore")
def mean_over_trees(per_tree: np.ndarray) -> np.ndarray:
    """The mean over axis 0 of (M,) or (M, N) per-tree forecasts, adding the
    trees in order for every shape, except where the running sum of finite
    values overflows: those entries become the sum of value / M, in the same
    order, whose partial sums stay within max |value|."""
    mean = sum_in_order(per_tree) / len(per_tree)
    if math.isfinite(mean) if per_tree.ndim == 1 else np.isfinite(mean).all():
        return mean
    mean, bad = np.array(mean), ~np.isfinite(mean)  # 0-d for (M,)
    part = per_tree[..., bad]
    # a mean of finite values is in range; only the last rounding can step out
    top = np.where(np.isfinite(part).all(axis=0), np.finfo(np.float64).max, np.inf)
    mean[bad] = np.clip(sum_in_order(part / len(per_tree)), -top, top)
    return mean
